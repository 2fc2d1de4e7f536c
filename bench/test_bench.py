"""The benchmark's own tests: a short run of every workload, and for each
output check a corrupted output that it must reject.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from braidgate.invariants import TauValue, link_word, tau  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "tau-exact", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def first_item(workload, accept=lambda inp, out: True):
    rng = np.random.default_rng(3)
    while True:
        inp = workload.draw(rng)
        out = workload.run(inp, None)
        if accept(inp, out):
            assert workload.check(inp, out) == []
            return inp, out


def test_rejects_flipped_tau_sign():
    w = wl.TauExact()
    inp, (t, sk, info) = first_item(w, lambda inp, out: out[0].mantissa != 0)
    assert w.check(inp, (TauValue(-t.mantissa, t.exponent), sk, info))


def test_rejects_bracket_off_by_1e_6():
    w = wl.StateSum()
    inp, (oracle, value, linking) = first_item(w)
    assert w.check(inp, (oracle + 1e-6, value, linking))


def test_rejects_wrong_linking_sigma():
    w = wl.StateSum()
    inp, (oracle, value, (sigma, z)) = first_item(w)
    assert w.check(inp, (oracle, value, (sigma + 1.0, z)))


def test_rejects_teleported_state_with_one_phase_flipped():
    w = wl.DenseProtocol()
    inp, out = first_item(w)
    received, bits = out[-1]
    flipped = received.copy()
    k = int(np.argmax(np.abs(flipped)))
    flipped[k] = -flipped[k]
    assert w.check(inp, out[:-1] + ((flipped, bits),))


def test_rejects_cli_reply_with_nan():
    w = wl.Cli()
    inp = w.round(np.random.default_rng(0))[0]
    assert inp["argv"] == ["ybe", "R"]
    good = b'{"form": "braided", "gate": "R", "ok": true, "residual": 0.0, "tol": 1e-12}\n'
    assert w.check(inp, (0, good, b"")) == []
    bad = good.replace(b"1e-12", b"NaN")
    assert w.check(inp, (0, bad, b""))


def test_rejects_borromean_tau_with_wrong_exponent():
    w = wl.Cli()
    inp = next(i for i in w.round(np.random.default_rng(0)) if "tau" in i["argv"])
    value = tau(link_word("borromean"))

    def reply(exponent):
        tau_json = {"mantissa": value.mantissa, "sqrt2_exp": exponent,
                    "float": value.mantissa * 2 ** (exponent / 2)}
        return json.dumps({"tau": tau_json}).encode() + b"\n"

    assert w.check(inp, (0, reply(value.exponent), b"")) == []
    # the float still agrees with the corrupted exponent, so only the
    # comparison with the benchmark's own trace can catch it
    assert w.check(inp, (0, reply(value.exponent + 2), b""))


def test_sampling_band_holds_for_small_probabilities():
    # with p * shots far below one, a single hit is a likely outcome and
    # must not be taken for a 6-sigma deviation
    assert checks.binomial_tail_ok(1, 4096, 1 / 4096)
    assert checks.binomial_tail_ok(0, 4096, 1 / 65536)
    assert not checks.binomial_tail_ok(40, 4096, 1 / 4096)
    assert not checks.binomial_tail_ok(1, 4096, 0.0)
