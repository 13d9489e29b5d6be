import math

import numpy as np
import pytest

import lapgeo as lg
from lapgeo.errors import InputError
from lapgeo.harness import ADAPTIVE


def _cfg(**kw):
    base = dict(
        n_values=(10,),
        q_values=(5,),
        n_seeds=2,
    )
    base.update(kw)
    return lg.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = lg.ExperimentConfig()
        assert cfg.n_values == (10, 20, 30, 40, 50)
        assert cfg.q_values == (5, 8, 10, ADAPTIVE)
        assert cfg.n_seeds == 20

    def test_r_rule_fixed_caps_at_n_minus_2(self):
        cfg = _cfg(r_rule=20)
        assert cfg.r_for(10) == 8
        assert cfg.r_for(50) == 20

    def test_r_rule_fractional(self):
        cfg = _cfg(r_rule=0.5)
        assert cfg.r_for(10) == 5

    def test_bandwidth_power_law(self):
        cfg = _cfg(bandwidth_rule={"c": 0.5, "alpha": 0.25})
        assert cfg.h_for(16) == pytest.approx(0.25)

    def test_bandwidth_explicit_list(self):
        cfg = _cfg(n_values=(10, 20), bandwidth_rule=[0.3, 0.2])
        assert cfg.h_for(20) == 0.2

    def test_rejects_unsorted_n_values(self):
        with pytest.raises(InputError):
            _cfg(n_values=(20, 10))

    def test_rejects_unknown_manifold(self):
        with pytest.raises(InputError):
            _cfg(manifold="sphere")

    def test_rejects_bad_q_entry(self):
        with pytest.raises(InputError):
            _cfg(q_values=("sometimes",))

    @pytest.mark.parametrize(
        "field",
        [
            {"q_values": (True,)},
            {"bandwidth_rule": {"c": "0.5", "alpha": 0.25}},
            {"bandwidth_rule": [-0.3]},
            {"base_seed": -1},
            {"base_seed": 1.5},
            {"output_path": 3},
        ],
    )
    def test_rejects_malformed_fields(self, field):
        with pytest.raises(InputError):
            _cfg(**field)

    def test_from_dict_roundtrip(self):
        cfg = lg.ExperimentConfig.from_dict(
            {
                "n_values": [10, 20],
                "q_values": [5, "adaptive"],
                "n_seeds": 3,
            }
        )
        assert cfg.n_values == (10, 20)
        assert cfg.q_values == (5, "adaptive")
        assert cfg.n_seeds == 3

    def test_from_dict_rejects_unknown_field(self):
        # optimizer was once a field; the sweep never searched, so it is gone
        for data in ({"grid": [10]}, {"optimizer": {"n_samples": 10, "seed": 4}}):
            with pytest.raises(InputError, match="unknown config fields"):
                lg.ExperimentConfig.from_dict(data)


class TestRunLossExperiment:
    def test_row_count_and_order(self):
        cfg = _cfg(n_values=(10, 20), q_values=(5, ADAPTIVE), n_seeds=2)
        rows = lg.run_loss_experiment(cfg)
        # per (n, q-spec): the seed rows then one mean row
        assert len(rows) == 2 * 2 * (2 + 1)
        key = [(r["n"], str(r["q_spec"]), str(r["seed"])) for r in rows]
        assert key == [
            (10, "5", "0"), (10, "5", "1"), (10, "5", "mean"),
            (10, "adaptive", "0"), (10, "adaptive", "1"), (10, "adaptive", "mean"),
            (20, "5", "0"), (20, "5", "1"), (20, "5", "mean"),
            (20, "adaptive", "0"), (20, "adaptive", "1"), (20, "adaptive", "mean"),
        ]

    def test_mean_row_summarizes_group(self):
        cfg = _cfg(n_seeds=3)
        rows = lg.run_loss_experiment(cfg)
        data, mean = rows[:3], rows[3]
        assert mean["seed"] == "mean"
        assert mean["status"] == "mean-of-3"
        assert mean["loss"] == pytest.approx(np.mean([r["loss"] for r in data]))

    def test_loss_is_absolute_gap(self):
        rows = lg.run_loss_experiment(_cfg(n_seeds=1))
        row = rows[0]
        assert row["status"] == "ok"
        assert row["loss"] == pytest.approx(abs(row["estimate"] - row["oracle"]))

    def test_fixed_q_above_rank_is_clamped(self):
        rows = lg.run_loss_experiment(_cfg(q_values=(10,), r_rule=20, n_seeds=1))
        assert rows[0]["q_spec"] == 10
        assert rows[0]["q_used"] == 8  # r capped at n - 2
        assert rows[0]["status"] == "ok"

    def test_adaptive_can_fail_without_killing_the_run(self):
        # r = 2 pits the near-degenerate leading pair against itself; this
        # (n, seed) cell splits the pair by well under the factor two the
        # inequality needs
        rows = lg.run_loss_experiment(
            _cfg(n_values=(20,), q_values=(ADAPTIVE,), r_rule=2, n_seeds=1)
        )
        assert rows[0]["status"] == "no-admissible-q"
        assert rows[0]["q_used"] == ""
        assert math.isnan(rows[0]["loss"])
        assert rows[1]["status"] == "mean-of-0"

    def test_deterministic_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg1 = _cfg(n_values=(10, 20), q_values=(5, ADAPTIVE), output_path=str(out1))
        cfg2 = _cfg(n_values=(10, 20), q_values=(5, ADAPTIVE), output_path=str(out2))
        lg.run_loss_experiment(cfg1)
        lg.run_loss_experiment(cfg2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_has_schema_header(self, tmp_path):
        out = tmp_path / "loss.csv"
        lg.run_loss_experiment(_cfg(n_seeds=1, output_path=str(out)))
        header = out.read_text().splitlines()[0]
        assert header == "n,q_spec,q_used,r_used,seed,estimate,oracle,loss,status"

    def test_adaptive_ok_rows_meet_the_inequality(self):
        cfg = _cfg(n_values=(10, 20, 30), q_values=(ADAPTIVE,), r_rule=0.5, n_seeds=4)
        checked = 0
        for row in lg.run_loss_experiment(cfg):
            if row["seed"] == "mean" or row["status"] != "ok":
                continue
            n = row["n"]
            cloud = lg.sample_uniform_circle(n, seed=row["seed"])
            manifold = lg.ManifoldConfig(1, 2.0 * np.pi, cfg.h_for(n))
            lam = lg.eigendecompose(lg.build_laplacian(cloud, manifold)).nonzero_eigenvalues
            assert 2.0 * abs(lam[row["q_used"] - 1]) < abs(lam[row["r_used"] - 1])
            checked += 1
        assert checked > 0
