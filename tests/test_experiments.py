"""Harness: reproducibility, sweep mechanics, verification suite."""

import dataclasses
import hashlib
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from csbmlab import experiments
from csbmlab.counting import counting_engine, falling_factorial, load_quotient_table
from csbmlab.experiments import (
    DetectionRow,
    ExperimentResult,
    SweepConfig,
    run_verification_suite,
    sweep,
    trial_generator,
    write_csv,
    write_json,
)
from csbmlab.models import ModelParams, sample_correlated
from csbmlab.statistics import CenteredMatrix, is_planted, threshold


CFG = SweepConfig(n=150, lam=2.0, k=2, eps=0.0, s_grid=(0.4, 0.9),
                  aleph=3, trials=6, seed=11, method="sparse")


class TestSeeding:
    def test_streams_are_deterministic_and_distinct(self):
        a = trial_generator(7, 0, 3, 0).integers(0, 1 << 30, 5)
        b = trial_generator(7, 0, 3, 0).integers(0, 1 << 30, 5)
        c = trial_generator(7, 0, 4, 0).integers(0, 1 << 30, 5)
        d = trial_generator(7, 0, 3, 1).integers(0, 1 << 30, 5)
        assert (a == b).all()
        assert not (a == c).all()
        assert not (a == d).all()


class TestRunDetection:
    """Detection at one grid point: the one row of a sweep over ``(s,)``."""

    def test_basic_row(self):
        cfg = SweepConfig(n=120, lam=2.0, k=2, eps=0.0, s_grid=(0.9,), aleph=3,
                          trials=8, seed=3, method="sparse")
        (row,) = sweep(cfg).rows
        assert row.s == 0.9
        assert 0 <= row.type_I <= 1 and 0 <= row.type_II <= 1
        assert row.type_I + row.type_II <= 1 + 2 / math.sqrt(8)
        assert not row.degenerate

    def test_reproducible(self):
        cfg = SweepConfig(n=100, lam=1.5, k=2, eps=0.2, s_grid=(0.8,), aleph=2,
                          trials=5, seed=9)
        assert sweep(cfg).rows == sweep(cfg).rows

    def test_worker_count_invariance(self):
        cfg = SweepConfig(n=100, lam=1.5, k=2, eps=0.2, s_grid=(0.8,), aleph=2,
                          trials=6, seed=4, workers=1)
        parallel = dataclasses.replace(cfg, workers=2)
        assert sweep(cfg).rows == sweep(parallel).rows

    def test_minimal_trials_flagged_when_degenerate(self):
        # two trials run fine; degenerate flag only fires on zero spread
        cfg = SweepConfig(n=80, lam=1.0, k=2, eps=0.0, s_grid=(0.5,), aleph=2,
                          trials=2, seed=1)
        (row,) = sweep(cfg).rows
        assert isinstance(row.degenerate, bool)

    def test_zero_spread_with_equal_means_is_not_separated(self):
        # λ=0.01 leaves every host edgeless, so all statistics coincide
        cfg = SweepConfig(n=50, lam=0.01, k=2, eps=0.0, s_grid=(0.1,), aleph=2,
                          trials=3, seed=0)
        (row,) = sweep(cfg).rows
        assert row.degenerate and row.sd_P == row.sd_Q == 0.0
        assert row.mean_P == row.mean_Q and row.z_separation == 0.0

    @pytest.mark.parametrize("gap", (1.0, -1.0))
    def test_zero_spread_z_has_the_sign_of_the_mean_gap(self, gap):
        params = ModelParams(n=50, lam=1.0, k=2, eps=0.0, s=0.5)
        row = experiments._row_from_samples(0.5, np.full(3, gap), np.zeros(3),
                                            params, aleph=2, C=0.5)
        assert row.degenerate and row.z_separation == math.copysign(math.inf, gap)

    def test_error_rates_read_the_statistics_rule(self):
        # values exactly at τ count as planted, as `detect` calls them
        params = ModelParams(n=50, lam=1.0, k=2, eps=0.0, s=0.5)
        tau = threshold(params, 3, 0.5)
        f_p = np.array([tau, tau, 2 * tau, 0.0, -tau])
        f_q = np.array([tau, 0.0, 0.5 * tau, -tau, 3 * tau])
        row = experiments._row_from_samples(0.5, f_p, f_q, params, aleph=3, C=0.5)
        calls_p = [is_planted(f, tau) for f in f_p]
        calls_q = [is_planted(f, tau) for f in f_q]
        assert row.type_I == np.mean(calls_q) == 0.4
        assert row.type_II == 1 - np.mean(calls_p) == 0.4

    @pytest.mark.parametrize("trials,workers", [(1, 1), (4, 0), (4, -4)])
    def test_rejects_one_trial_and_no_workers(self, trials, workers):
        # a single trial has no spread; no worker count below 1 runs serially
        with pytest.raises(ValueError):
            SweepConfig(n=80, lam=1.0, k=2, eps=0.0, s_grid=(0.5,), aleph=2,
                        trials=trials, seed=1, workers=workers)

    def test_detection_quality_at_maximal_signal(self):
        # s=1 gives the strongest signal; both error rates stay small and the
        # planted mean dominates (band from the Monte Carlo oracle itself)
        cfg = SweepConfig(n=800, lam=2.0, k=2, eps=0.0, s_grid=(1.0,), aleph=5,
                          trials=60, seed=21, workers=2)
        (row,) = sweep(cfg).rows
        assert row.mean_P > row.mean_Q + 2 * row.sd_Q
        assert row.type_I + row.type_II <= 0.5

    def test_no_signal_deep_in_the_hard_phase(self):
        cfg = SweepConfig(n=800, lam=2.0, k=2, eps=0.0, s_grid=(0.2,), aleph=5,
                          trials=60, seed=21, workers=2)
        (row,) = sweep(cfg).rows
        assert abs(row.z_separation) <= 0.5

    def test_color_coding_method_through_harness(self):
        cfg = SweepConfig(n=60, lam=2.0, k=2, eps=0.0, s_grid=(0.9,), aleph=2,
                          trials=4, seed=2, method="cc", reps=60)
        # cc draws come from the per-trial streams
        assert sweep(cfg).rows == sweep(cfg).rows


class TestOneTrial:
    def test_planted_sample_is_released_before_the_null_pair(self, monkeypatch):
        # a trial holds one pair at a time: the planted sample, and so its
        # hosts, are gone when the null pair is drawn
        draw_correlated, draw_null = experiments.sample_correlated, experiments.sample_null
        planted, alive_at_null = [], []

        def correlated(params, rng):
            smp = draw_correlated(params, rng)
            planted.extend(weakref.ref(x) for x in (smp, smp.a, smp.b))
            return smp

        def null(params, rng):
            alive_at_null.append([ref() is not None for ref in planted])
            return draw_null(params, rng)

        params = ModelParams(n=200, lam=1.5, k=2, eps=0.3, s=0.9)
        args = (3, 0, 1, params, 4, "sparse", None)
        want = experiments._one_trial(args)
        monkeypatch.setattr(experiments, "sample_correlated", correlated)
        monkeypatch.setattr(experiments, "sample_null", null)
        assert experiments._one_trial(args) == want
        assert alive_at_null == [[False, False, False]]


class TestSweep:
    def test_rows_and_reference(self):
        res = sweep(CFG)
        assert len(res.rows) == 2
        assert [r.s for r in res.rows] == [0.4, 0.9]
        assert res.reference["sqrt_alpha"] == pytest.approx(math.sqrt(0.338))
        assert math.isinf(res.reference["ks_s"])  # eps = 0

    def test_ks_reference_value(self):
        cfg = SweepConfig(n=100, lam=1.2, k=2, eps=0.3, s_grid=(0.5,),
                          aleph=2, trials=2, seed=0)
        assert cfg.ks_s == pytest.approx(1 / (1.2 * 0.09))

    def test_output_bit_identical(self, tmp_path):
        res1 = sweep(CFG)
        res2 = sweep(CFG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(res1, p1)
        write_csv(res2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(res1, j1)
        write_json(res2, j2)
        assert j1.read_bytes() == j2.read_bytes()

    def test_csv_schema(self, tmp_path):
        res = sweep(CFG)
        path = tmp_path / "out.csv"
        write_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=csbmlab-sweep-v1"
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "s,mean_P,sd_P,mean_Q,sd_Q,z_separation,type_I,type_II"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 2

    def test_json_schema(self, tmp_path):
        res = sweep(CFG)
        path = tmp_path / "out.json"
        write_json(res, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "csbmlab-sweep-v1"
        assert payload["reference"]["ks_s"] is None
        assert len(payload["rows"]) == 2
        assert set(payload["rows"][0]) == {
            "s", "mean_P", "sd_P", "mean_Q", "sd_Q", "z_separation",
            "type_I", "type_II", "degenerate"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n=100, lam=1.0, k=2, eps=0.0, s_grid=(0.9, 0.4),
                        aleph=2, trials=4, seed=0)
        with pytest.raises(ValueError, match="s_grid must hold at least one value"):
            SweepConfig(n=100, lam=1.0, k=2, eps=0.0, s_grid=(),
                        aleph=2, trials=4, seed=0)
        with pytest.raises(ValueError):
            SweepConfig(n=100, lam=1.0, k=2, eps=0.0, s_grid=(0.5,),
                        aleph=2, trials=1, seed=0)
        for C in (0.0, 1.0, 5.0, -1.0):
            with pytest.raises(ValueError, match=r"C must lie in \(0, 1\)"):
                SweepConfig(n=100, lam=1.0, k=2, eps=0.0, s_grid=(0.5,),
                            aleph=2, trials=2, seed=0, C=C)
        for aleph in (0, -1, 15):
            with pytest.raises(ValueError, match=r"aleph must be in 1\.\.14"):
                SweepConfig(n=100, lam=1.0, k=2, eps=0.0, s_grid=(0.5,),
                            aleph=aleph, trials=2, seed=0)

    @pytest.mark.parametrize("method", ["auto", "brute", ""])
    def test_unknown_method_rejected_when_built(self, method):
        # raised by the config itself, before any trial reaches a worker
        with pytest.raises(ValueError, match="method must be one of exact, sparse, cc"):
            SweepConfig(n=100, lam=1.0, k=2, eps=0.0, s_grid=(0.5,),
                        aleph=2, trials=2, seed=0, method=method, workers=2)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_below_one_rejected_when_built(self, reps):
        # as the method is: by the config, not by w_color_coding in a worker
        with pytest.raises(ValueError, match="reps must be >= 1"):
            SweepConfig(n=100, lam=1.0, k=2, eps=0.0, s_grid=(0.5,),
                        aleph=2, trials=2, seed=0, method="cc", reps=reps, workers=2)

    def test_default_method_written_to_config(self, tmp_path):
        cfg = SweepConfig(n=12, lam=1.5, k=2, eps=0.3, s_grid=(0.8,),
                          aleph=3, trials=2, seed=0)
        write_json(sweep(cfg), tmp_path / "out.json")
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["config"]["method"] == "sparse"

    def test_numpy_numbers_are_written_as_python_numbers(self, tmp_path):
        # a linspace grid and numpy integers are stored as Python numbers,
        # so both writers give what the same config in Python numbers gives
        plain = SweepConfig(n=60, lam=2.0, k=2, eps=0.0, s_grid=(0.5, 0.9),
                            aleph=2, trials=2, seed=1)
        cfg = SweepConfig(n=np.int64(60), lam=np.float64(2.0), k=np.int64(2),
                          eps=0.0, s_grid=np.linspace(0.5, 0.9, 2),
                          aleph=np.int64(2), trials=np.int64(2), seed=np.int64(1))
        assert cfg == plain
        assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)] == [
            int, float, int, float, tuple, int, int, int, str, type(None), float, int]
        assert {type(s) for s in cfg.s_grid} == {float}
        for writer, name in ((write_csv, "out.csv"), (write_json, "out.json")):
            writer(sweep(plain), tmp_path / f"plain_{name}")
            writer(sweep(cfg), tmp_path / name)
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / f"plain_{name}").read_bytes()
        assert (tmp_path / "out.csv").read_text().splitlines()[-2].startswith("0.5,")
        assert json.loads((tmp_path / "out.json").read_text())["config"]["n"] == 60

    def test_json_writer_leaves_no_partial_file(self, tmp_path):
        res = ExperimentResult(rows=(), reference={}, config={"n": object()})
        with pytest.raises(TypeError):
            write_json(res, tmp_path / "out.json")
        assert not (tmp_path / "out.json").exists()

    def test_non_finite_row_values(self, tmp_path):
        # JSON writes null where CSV keeps the float's repr
        row = DetectionRow(s=0.5, mean_P=1.0, sd_P=0.0, mean_Q=0.0, sd_Q=0.0,
                           z_separation=math.inf, type_I=0.0, type_II=0.0,
                           degenerate=True)
        res = ExperimentResult(rows=(row,), reference={"ks_s": math.inf})
        write_json(res, tmp_path / "out.json")
        text = (tmp_path / "out.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        payload = json.loads(text)
        assert payload["rows"][0]["z_separation"] is None
        assert payload["rows"][0]["mean_P"] == 1.0
        write_csv(res, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_text().splitlines()[-1] \
            == "0.5,1.0,0.0,0.0,0.0,inf,0.0,0.0"


class TestVerificationSuite:
    def test_passes_on_fresh_state(self):
        report = run_verification_suite(seed=0)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]

    def test_seed_change_keeps_passes(self):
        r1 = run_verification_suite(seed=0)
        r2 = run_verification_suite(seed=12345)
        assert [c.passed for c in r1.checks] == [c.passed for c in r2.checks]

    def test_mutation_is_caught(self, monkeypatch):
        # corrupt the cycle intensity constant: the Poisson check must fail
        from csbmlab import models as models_mod

        original = models_mod.cycle_intensity

        def corrupted(j, params):
            return 2.5 * original(j, params)

        monkeypatch.setattr(models_mod, "cycle_intensity", corrupted)
        report = run_verification_suite(seed=0)
        failing = {c.name for c in report.checks if not c.passed}
        assert "poisson_cycle_mean" in failing or "event_E_frequency" in failing


class TestOutputPin:
    """Exact outputs of the engine, whose `W` is the correctly rounded exact
    sum; a refactor that keeps the arithmetic must reproduce them bit for
    bit."""

    def test_sweep_rows(self):
        cfg = SweepConfig(n=200, lam=2.0, k=2, eps=0.3, s_grid=(0.5, 0.9),
                          aleph=4, trials=3, seed=7, method="sparse")
        got = [(r.s, r.mean_P, r.sd_P, r.mean_Q, r.sd_Q, r.z_separation,
                r.type_I, r.type_II) for r in sweep(cfg).rows]
        assert got == [
            (0.5, 0.017087102529813446, 0.07947546027421734,
             0.005457944104156322, 0.027690044678372744, 0.14632388897821513,
             0.3333333333333333, 0.6666666666666666),
            (0.9, 1.3100795504147675, 2.2138892586225816,
             -0.13422831784293285, 0.4430590263673397, 0.6523848754550204,
             0.0, 0.6666666666666666),
        ]

    def test_per_shape_w_at_aleph_six(self):
        # host with a 61-vertex 2-core, so cyclic glued patterns contribute
        params = ModelParams(n=120, lam=2.5, k=2, eps=0.3, s=0.9)
        a = sample_correlated(params, np.random.default_rng(3)).a
        self.check_pins(6, a, params, [
            263147.9257727777, -6007250.157168185, -2096397.6216511512,
            951449.4971614251, -3023734.8800197933, -7183404.388436003,
            853315.9239363023, 73870.82574423924, 1151628.7808780544,
            -527403.0199877932, -236639.0162093765])

    def test_per_shape_w_at_aleph_eight(self):
        # the ℵ=8 engine reads the committed table file that every default
        # sweep loads; the host (criterion 12's config at s=0.9) has a
        # 42-vertex 2-core
        params = ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.9)
        a = sample_correlated(params, np.random.default_rng(8)).a
        self.check_pins(8, a, params, [
            1736652820061.7937, -371850135458315.0, 398309868415503.5,
            -483153093555043.75, -250563558117056.2, -1035734265797915.8,
            1706796459174243.0, -3671605003858860.0, -927702515740111.4,
            -1291957514823021.5, -625029898687014.1, 2539425439654937.5,
            165478059273063.9, 1373826284481914.2, 173678513479168.9,
            243411159859590.6, -4603777347458688.0, -631657852639149.2,
            -182330209399151.84, -1938455652670495.5, 44305172311820.46,
            664700540516885.6, -144040528897334.34, -400963803998503.4,
            -1648197153437335.0, 850611555386528.0, -498241677799005.25,
            6020904432912.62, -39854759553749.26, 297310173865152.8,
            1179007437695576.2, -3018386999429971.0, -1256478737881194.5,
            -82095725716309.5, -2128734813550757.0, 1565133535539938.0,
            1219539863802167.8, 2877922581541199.5, 536733172936515.8,
            584745963739918.8, 210906039074485.2, 312491352667634.4,
            819189259565320.2, 978657883470681.8, -989243367420579.4,
            -538985574977591.44, 2543833622624487.5])

    @pytest.mark.parametrize("aleph, digest", [
        (9, "b1f70d49a66765f8757ac8b5b03a57a62f1bfe3aac20f09fc9de1b42db3e5364"),
        (10, "788bb3cdd1e7f5adfc9c8bbd6f7e0a0c46aeb98430c48fc14ad844d7c7c6d16e")],
        ids=["aleph9", "aleph10"])
    def test_per_shape_w_past_the_generator(self, aleph, digest):
        # no generator oracle is fast enough here at ℵ=9 and 10, so W on the
        # ℵ=8 pin's host is pinned by the sha256 of its values' float.hex()
        # joined by commas, recorded when each ℵ had its own table file
        params = ModelParams(n=3000, lam=1.2, k=2, eps=0.3, s=0.9)
        a = sample_correlated(params, np.random.default_rng(8)).a
        x = CenteredMatrix.from_graph(a, params)
        w = counting_engine(aleph).w_all_shapes(a, x.nonedge_value, x.slope).tolist()
        assert hashlib.sha256(",".join(v.hex() for v in w).encode()).hexdigest() == digest
        self.check_pins(aleph, a, params, w)

    @staticmethod
    def check_pins(aleph, host, params, pinned):
        """The engine's W on `host` is `pinned`, and each pin is the float
        nearest the exact rational sum over the forest record's terms."""
        x = CenteredMatrix.from_graph(host, params)
        eng = counting_engine(aleph)
        w = [float(v) for v in eng.w_all_shapes(host, x.nonedge_value, x.slope)]
        assert w == pinned
        forests = eng.forest_counts(host)
        c0, c1, n = Fraction(x.nonedge_value), Fraction(x.slope), host.n_vertices
        graphs, _, record = load_quotient_table(aleph)
        # a forest's vertex and edge counts are its components'
        size = [(sum(graphs[i].n_vertices for i in comps), sum(graphs[i].n_edges for i in comps))
                for comps, _ in record["forests"]]
        for value, shape, (_, terms) in zip(pinned, eng.catalog, record["shapes"]):
            exact = sum(mult * c0 ** (aleph - e) * c1 ** e * forests[fkey]
                        * falling_factorial(n - v, aleph + 1 - v)
                        for fkey, mult in terms for v, e in [size[fkey]])
            assert value == float(exact / shape.aut)
