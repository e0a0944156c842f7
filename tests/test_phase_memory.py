"""Smoke test of tools/phase_memory.py at a small size."""

import importlib.util
import tracemalloc
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "phase_memory", Path(__file__).resolve().parents[1] / "tools" / "phase_memory.py")
phase_memory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(phase_memory)

HOST_PHASES = ("two_core", "core_embeddings", "host_arcs", "hom_counts",
               "forest/W", "w_all_shapes")


def test_every_phase_is_printed(capsys):
    assert phase_memory.main(["--n", "3000", "--lam", "1.2", "--s", "0.9",
                              "--aleph", "8", "--seed", "0", "--trials", "1"]) == 0
    assert not tracemalloc.is_tracing()
    lines = capsys.readouterr().out.splitlines()
    rows = {(line.split()[0], line.split()[1]) for line in lines[4:-1]}
    want = {("sample_correlated", "P"), ("sample_null", "Q")}
    want |= {(phase, host) for phase in HOST_PHASES for host in ("P.a", "P.b", "Q.a", "Q.b")}
    assert rows == want
    for line in lines[4:-1]:
        peak, held = map(float, line.split()[2:])
        assert peak >= held
    assert lines[1].startswith("ru_maxrss_mb ") and "after the import and engine build" in lines[1]
    assert lines[2].startswith("ru_maxrss_mb ") and "after 1 untraced trials" in lines[2]
    assert lines[-1].startswith("ru_maxrss_mb ") and float(lines[-1].split()[1]) > 0
