"""Command-line interface: verbs, formats, exit codes, config files."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from csbmlab.cli import build_parser, main
from csbmlab.graphs import Graph


def run(args):
    return main(args)


class TestSample:
    def test_planted_with_latents(self, tmp_path, capsys):
        prefix = str(tmp_path / "smp")
        code = run(["sample", "--model", "P", "--n", "60", "--lambda", "1.5",
                    "--s", "0.8", "--eps", "0.3", "--seed", "5",
                    "--out", prefix, "--format", "json"])
        assert code == 0
        a = Graph.from_json((tmp_path / "smp_A.json").read_text())
        b = Graph.from_json((tmp_path / "smp_B.json").read_text())
        assert a.n_vertices == b.n_vertices == 60
        latent = json.loads((tmp_path / "smp_latent.json").read_text())
        assert len(latent["sigma"]) == 60
        assert sorted(latent["pi"]) == list(range(60))

    def test_null_text_format(self, tmp_path):
        prefix = str(tmp_path / "null")
        code = run(["sample", "--model", "Q", "--n", "40", "--lambda", "2.0",
                    "--s", "0.5", "--out", prefix, "--format", "csv"])
        assert code == 0
        g = Graph.from_text((tmp_path / "null_A.txt").read_text())
        assert g.n_vertices == 40

    def test_truncated_model(self, tmp_path):
        prefix = str(tmp_path / "tr")
        code = run(["sample", "--model", "Pprime", "--n", "80", "--lambda", "1.8",
                    "--s", "0.7", "--eps", "0.4", "--N", "4", "--out", prefix])
        assert code == 0
        assert (tmp_path / "tr_latent.json").exists()

    def test_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "x"), str(tmp_path / "y")
        for prefix in (p1, p2):
            run(["sample", "--model", "Q", "--n", "50", "--lambda", "1.0",
                 "--s", "0.9", "--seed", "3", "--out", prefix])
        assert (tmp_path / "x_A.json").read_text() == (tmp_path / "y_A.json").read_text()


class TestDetect:
    def test_roundtrip(self, tmp_path):
        prefix = str(tmp_path / "d")
        run(["sample", "--model", "P", "--n", "60", "--lambda", "2.0",
             "--s", "0.9", "--seed", "2", "--out", prefix])
        out = tmp_path / "decision.json"
        code = run(["detect", "--input-a", f"{prefix}_A.json",
                    "--input-b", f"{prefix}_B.json", "--aleph", "3",
                    "--lambda", "2.0", "--s", "0.9", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"f_value", "tau", "decision", "per_shape"}
        assert payload["decision"] in ("planted", "null")
        assert len(payload["per_shape"]) == 2  # |catalog| at aleph=3

    @pytest.mark.parametrize("method", ["exact", "sparse", "cc"])
    def test_sparse_labels_are_usage_error(self, tmp_path, capsys, method):
        path = tmp_path / "g.json"
        path.write_text('{"vertices": [0, 1, 5], "edges": [[0, 1], [1, 5]]}')
        code = run(["detect", "--input-a", str(path), "--input-b", str(path),
                    "--aleph", "2", "--lambda", "1.0", "--s", "0.5",
                    "--method", method, "--reps", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: host graphs must use the dense universe 0..n-1\n")

    def test_default_method_is_the_engine(self, tmp_path, capsys):
        # n=12, ℵ=3 lies within the brute-force budget
        prefix = str(tmp_path / "d")
        run(["sample", "--model", "Q", "--n", "12", "--lambda", "1.5",
             "--s", "0.8", "--seed", "1", "--out", prefix])
        capsys.readouterr()
        inputs = ["--input-a", f"{prefix}_A.json", "--input-b", f"{prefix}_B.json",
                  "--aleph", "3", "--lambda", "1.5", "--s", "0.8"]
        assert run(["detect", *inputs]) == 0
        default = json.loads(capsys.readouterr().out)
        assert run(["detect", *inputs, "--method", "sparse"]) == 0
        assert default["method"] == "sparse"
        assert default == json.loads(capsys.readouterr().out)
        assert run(["detect", *inputs, "--method", "auto"]) == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_size_mismatch_is_usage_error(self, tmp_path):
        ga, gb = tmp_path / "a.json", tmp_path / "b.json"
        ga.write_text(Graph.empty(5).to_json())
        gb.write_text(Graph.empty(6).to_json())
        code = run(["detect", "--input-a", str(ga), "--input-b", str(gb),
                    "--aleph", "2", "--lambda", "1.0", "--s", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("method", ["exact", "sparse", "cc"])
    @pytest.mark.parametrize("reps", ["0", "-4"])
    def test_reps_below_one_is_usage_error(self, tmp_path, capsys, method, reps):
        # the engine reads no reps, but a count it would refuse is not echoed
        path = tmp_path / "g.json"
        path.write_text(Graph.build([(0, 1), (1, 2)], n=6).to_json())
        code = run(["detect", "--input-a", str(path), "--input-b", str(path),
                    "--aleph", "2", "--lambda", "1.0", "--s", "0.5",
                    "--method", method, "--reps", reps])
        assert (code, capsys.readouterr()) == (2, ("", "error: reps must be >= 1\n"))

    def test_aleph_without_a_table_is_refused(self, tmp_path, capsys, monkeypatch):
        # ℵ=11 and ℵ=14 have no committed table: the engine refuses them at
        # once, naming the writer, and neither starts the generator nor
        # lists the catalog (4-5 s at ℵ=14) for τ
        from csbmlab import tablegen, trees

        def generate(*args):
            raise AssertionError("detect ran the generator")

        def catalog(aleph, _enumerate=trees.enumerate_trees):
            if aleph > 10:
                raise AssertionError(f"detect listed the aleph={aleph} catalog")
            return _enumerate(aleph)

        monkeypatch.setattr(tablegen, "_quotient_counts", generate)
        monkeypatch.setattr(trees, "enumerate_trees", catalog)
        path = tmp_path / "g.json"
        path.write_text(Graph.build([(0, 1), (1, 2)], n=4).to_json())
        for aleph in (11, 14):
            code = run(["detect", "--input-a", str(path), "--input-b", str(path),
                        "--aleph", str(aleph), "--lambda", "1.0", "--s", "0.5"])
            assert (code, capsys.readouterr()) == (2, ("", (
                f"error: no quotient table for aleph={aleph}: quotients.npz holds "
                f"aleph <= 10 and is written by counting.write_quotient_table({aleph})\n")))

    @pytest.mark.parametrize("C", ["5", "-1"])
    def test_threshold_scale_refused_before_scoring(self, tmp_path, capsys,
                                                    monkeypatch, C):
        from csbmlab import cli

        def score(*args, **kwargs):
            raise AssertionError("detect scored the pair")

        monkeypatch.setattr(cli, "f_tree_stat", score)
        path = tmp_path / "g.json"
        path.write_text(Graph.build([(0, 1), (1, 2)], n=6).to_json())
        code = run(["detect", "--input-a", str(path), "--input-b", str(path),
                    "--aleph", "2", "--lambda", "1.0", "--s", "0.5", "--C", C])
        assert (code, capsys.readouterr()) == (2, ("", "error: C must lie in (0, 1)\n"))


class TestSweep:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--n", "100", "--lambda", "2.0", "--s-grid",
                    "0.5,0.9", "--aleph", "2", "--trials", "4",
                    "--seed", "1", "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert any(l.startswith("s,") for l in lines)

    @pytest.mark.parametrize("grid", [",", ",,"])
    def test_empty_grid_is_usage_error(self, tmp_path, capsys, grid):
        # no value at all is told apart from a value outside (0, 1]
        code = run(["sweep", "--n", "100", "--lambda", "2.0", "--s-grid", grid,
                    "--aleph", "2", "--trials", "4", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: s_grid must hold at least one value\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("aleph", ["0", "15"])
    def test_aleph_out_of_range(self, tmp_path, capsys, aleph):
        # refused by the config, as `detect` and `trees` refuse it, not by
        # a missing quotient table
        out = tmp_path / "s.json"
        code = run(["sweep", "--n", "50", "--lambda", "1", "--s-grid", "0.5",
                    "--aleph", aleph, "--trials", "2", "--out", str(out)])
        assert (code, capsys.readouterr()) == (
            2, ("", f"error: aleph must be in 1..14, got {aleph}\n"))
        assert not out.exists()


class TestVerify:
    def test_verify_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--seed", "0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        assert len(payload["checks"]) >= 12


class TestTrees:
    def test_json_listing(self, capsys):
        code = run(["trees", "--aleph", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["shapes"]) == 2
        assert {s["aut"] for s in payload["shapes"]} == {2, 6}

    def test_csv_counts(self, capsys):
        code = run(["trees", "--aleph", "5", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "aleph,count"
        assert out[1:] == ["1,1", "2,1", "3,2", "4,3", "5,6"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("aleph", ["0", "-1", "15"])
    def test_aleph_out_of_range(self, capsys, fmt, aleph):
        assert run(["trees", "--aleph", aleph, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "aleph must be in 1..14" in captured.err


class TestModuleEntry:
    def test_python_dash_m(self):
        # a checkout has no installed `csbmlab` script; README runs the
        # package as a module instead
        src = Path(__file__).parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "csbmlab", "trees", "--aleph", "3"],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["shapes"]) == 2


class TestAnalyze:
    def test_sampled_host(self, tmp_path, capsys):
        # 2^|E| subsets of a 200-vertex host are never enumerated
        prefix = str(tmp_path / "h")
        assert run(["sample", "--model", "P", "--n", "200", "--lambda", "1.2",
                    "--eps", "0.3", "--s", "0.8", "--out", prefix]) == 0
        capsys.readouterr()
        assert run(["analyze", "--input", f"{prefix}_A.json", "--N", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_self_bad"] is False

    def test_triangle_report(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        path.write_text(Graph.build([(0, 1), (1, 2), (0, 2)], n=3).to_json())
        code = run(["analyze", "--input", str(path), "--N", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycles_by_length"] == {"3": 1}
        assert payload["is_admissible"] is False  # contains a 3-cycle

    def test_large_n_regime_override(self, tmp_path, capsys):
        path = tmp_path / "k5.json"
        path.write_text(Graph.complete(5).to_json())
        code = run(["analyze", "--input", str(path), "--N", "3",
                    "--phi-n", "1e126"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_bad"] is True
        assert payload["is_self_bad"] is True

    @pytest.mark.parametrize("flag, value", [("--phi-n", "nan"), ("--phi-n", "inf"),
                                             ("--phi-n", "1e400"), ("--phi-n", "1"),
                                             ("--lambda", "nan")])
    def test_bad_density_parameters_are_usage_errors(self, tmp_path, capsys, flag, value):
        # these printed "phi_log": NaN, which is not JSON, or a math domain error
        path = tmp_path / "tri.json"
        path.write_text(Graph.build([(0, 1), (1, 2), (0, 2)], n=3).to_json())
        assert run(["analyze", "--input", str(path), flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be" in err

    def test_subsets_enumerated_once_for_admissibility(self, tmp_path, capsys,
                                                      monkeypatch):
        # the all-subgraph minimum (up to 2^24 edge subsets) runs once per call
        from csbmlab import density

        calls = []
        minimum = density._min_phi_log_subgraphs

        def counted(h, p, proper):
            calls.append(proper)
            return minimum(h, p, proper)

        monkeypatch.setattr(density, "_min_phi_log_subgraphs", counted)
        path = tmp_path / "k4.json"
        path.write_text(Graph.complete(4).to_json())
        for phi_n in ("10", "1e126"):
            calls.clear()
            assert run(["analyze", "--input", str(path), "--N", "3",
                        "--phi-n", phi_n]) == 0
            json.loads(capsys.readouterr().out)
            assert calls.count(False) == 1

    @pytest.mark.parametrize("text", ["n=-2; ", '{"n": -2, "edges": []}'])
    def test_negative_n_is_usage_error(self, tmp_path, capsys, text):
        # it was read as the empty graph and reported
        path = tmp_path / "g.txt"
        path.write_text(text + "\n")
        assert run(["analyze", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "n must be >= 0" in err


class TestQuickstart:
    def test_readme_commands(self, tmp_path, monkeypatch, capsys):
        """`sample`, `detect`, `analyze` and `trees` exactly as README's
        command-line block writes them (`sweep` and `verify` are tested
        apart at smaller sizes)."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```bash")[1].split("```")[0]
        commands = [shlex.split(cmd.split("#")[0])
                    for cmd in block.replace("\\\n", " ").splitlines()]
        assert all(c[:4] == ["PYTHONPATH=src", "python", "-m", "csbmlab"]
                   for c in commands if c)
        verbs = {"sample", "detect", "analyze", "trees"}
        commands = [c[4:] for c in commands if c and c[4] in verbs]
        assert [c[0] for c in commands] == ["sample", "detect", "trees", "analyze"]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert run(argv) == 0, argv
        assert "\n7,23\n8,47\n" in capsys.readouterr().out  # trees --aleph 8


class TestConfigAndErrors:
    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("aleph=4\nformat=csv\n")
        code = run(["--config", str(cfg), "trees"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "4,3"

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense line\n")
        assert run(["--config", str(cfg), "trees", "--aleph", "2"]) == 2

    def test_usage_error_exit_code(self, capsys):
        assert run(["sample", "--model", "X", "--n", "10",
                    "--lambda", "1.0", "--s", "0.5"]) == 2

    def test_missing_file(self, capsys):
        assert run(["analyze", "--input", "/nonexistent/g.json"]) == 2

    def test_config_keys_are_flag_names(self, tmp_path):
        # `lambda` is the flag's name (its dest is `lam`)
        cfg = tmp_path / "sample.cfg"
        cfg.write_text("model=Q\nn=30\nlambda=1.0\ns=0.5\n")
        prefix = tmp_path / "cfg"
        assert run(["--config", str(cfg), "sample", "--out", str(prefix)]) == 0
        assert Graph.from_json((tmp_path / "cfg_A.json").read_text()).n_vertices == 30

    def test_config_values_obey_choices(self, tmp_path, capsys):
        cfg = tmp_path / "bad_model.cfg"
        cfg.write_text("model=Z\nn=30\ns=0.5\n")
        assert run(["--config", str(cfg), "sample", "--lambda", "1.0",
                    "--out", str(tmp_path / "z")]) == 2
        assert not (tmp_path / "z_A.json").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("alpeh=4\n")
        assert run(["--config", str(cfg), "trees", "--aleph", "3"]) == 2

    def test_command_line_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("aleph=4\nformat=csv\n")
        assert run(["--config", str(cfg), "trees", "--aleph", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "5,6"

    def test_config_equals_form(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("format=csv\n")
        assert run([f"--config={cfg}", "trees", "--aleph", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["aleph,count", "1,1", "2,1"]

    def test_flag_prefixes_are_usage_errors(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("alep=4\n")
        assert run(["--config", str(cfg), "trees"]) == 2
        cfg.write_text("work=2\n")
        assert run(["--config", str(cfg), "sweep", "--n", "20", "--lambda", "1.0",
                    "--s-grid", "0.5", "--aleph", "2", "--trials", "1",
                    "--out", str(tmp_path / "s.json")]) == 2
        assert run(["trees", "--alep", "4"]) == 2
        assert not (tmp_path / "s.json").exists()

    def test_malformed_graph_file_is_usage_error(self, tmp_path, capsys):
        for payload in ('{"n": 3}', '{"n": "3", "edges": []}',
                        '{"n": 3, "edges": 5}', '{"n": 3, "edges": [[0.5, 1.7]]}'):
            path = tmp_path / "g.json"
            path.write_text(payload)
            assert run(["analyze", "--input", str(path)]) == 2
            assert "malformed graph JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name,payload", [
        ("g.txt", "n=3; 0-1; 1-2"),  # two edge lists
        ("g.txt", "n=5; v=0,1,2; 0-1"),  # n is not the vertex count
        ("g.json", '{"n": 5, "vertices": [0, 1, 2], "edges": [[0, 1]]}'),
        ("g.json", '{"n": 3, "edges": [[0, 1]], "weights": [1]}'),
        ("g.json", '{"n": 3.0, "vertices": [0, 1, 2], "edges": []}'),
    ])
    def test_extra_fields_and_wrong_n(self, tmp_path, capsys, name, payload):
        path = tmp_path / name
        path.write_text(payload)
        assert run(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one(self, tmp_path, workers):
        out = tmp_path / "s.json"
        assert run(["sweep", "--n", "20", "--lambda", "1.0", "--s-grid", "0.5",
                    "--aleph", "2", "--trials", "2", "--workers", workers,
                    "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("C", ["5", "-1"])
    def test_threshold_scale_outside_unit_interval(self, tmp_path, capsys, C):
        # the same check as `detect --C`
        out = tmp_path / "s.json"
        assert run(["sweep", "--n", "20", "--lambda", "1.0", "--s-grid", "0.5",
                    "--aleph", "2", "--trials", "2", "--C", C,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: C must lie in (0, 1)\n"
        assert not out.exists()


class TestFlagPin:
    """Every flag of the verbs that share flags, as `build_parser()` declares
    it: (dest, type, default, required, choices). A flag declared once for
    several verbs must read the same on each."""

    METHODS = ("exact", "sparse", "cc")
    COMMON = {
        "--seed": ("seed", int, 0, False, None),
        "--out": ("out", None, None, False, None),
        "--format": ("format", None, "json", False, ("csv", "json")),
    }
    FLAGS = {
        "sample": {
            "--model": ("model", None, None, True, ("P", "Q", "Pprime")),
            "--n": ("n", int, None, True, None),
            "--lambda": ("lam", float, None, True, None),
            "--k": ("k", int, 2, False, None),
            "--eps": ("eps", float, 0.0, False, None),
            "--s": ("s", float, None, True, None),
            "--N": ("N", int, 5, False, None),
            "--vertex-cap": ("vertex_cap", int, 30, False, None),
        },
        "detect": {
            "--input-a": ("input_a", None, None, True, None),
            "--input-b": ("input_b", None, None, True, None),
            "--aleph": ("aleph", int, None, True, None),
            "--lambda": ("lam", float, None, True, None),
            "--k": ("k", int, 2, False, None),
            "--eps": ("eps", float, 0.0, False, None),
            "--s": ("s", float, None, True, None),
            "--method": ("method", None, "sparse", False, METHODS),
            "--reps": ("reps", int, None, False, None),
            "--C": ("C", float, 0.5, False, None),
        },
        "sweep": {
            "--n": ("n", int, None, True, None),
            "--lambda": ("lam", float, None, True, None),
            "--k": ("k", int, 2, False, None),
            "--eps": ("eps", float, 0.0, False, None),
            "--s-grid": ("s_grid", None, None, True, None),
            "--aleph": ("aleph", int, None, True, None),
            "--trials": ("trials", int, 200, False, None),
            "--method": ("method", None, "sparse", False, METHODS),
            "--reps": ("reps", int, None, False, None),
            "--C": ("C", float, 0.5, False, None),
            "--workers": ("workers", int, 1, False, None),
        },
        "analyze": {
            "--input": ("input", None, None, True, None),
            "--D": ("D", int, 100, False, None),
            "--lambda": ("lam", float, 1.0, False, None),
            "--k": ("k", int, 2, False, None),
            "--N": ("N", int, 5, False, None),
            "--phi-n": ("phi_n", float, None, False, None),
        },
    }

    @pytest.mark.parametrize("verb", sorted(FLAGS))
    def test_flags(self, verb):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        got = {}
        for action in sub.choices[verb]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (flag,) = action.option_strings
            choices = None if action.choices is None else tuple(action.choices)
            got[flag] = (action.dest, action.type, action.default,
                         action.required, choices)
        assert got == {**self.COMMON, **self.FLAGS[verb]}
