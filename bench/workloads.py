"""The four workloads: how each draws its inputs, runs one item through
braidgate's public functions, and checks the outputs.

Every item of a workload is drawn at one fixed size, so item times form
one distribution.  ``draw`` and ``check`` run outside the timed region;
``run`` is the timed item and calls only the program.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import braidgate
from braidgate import braid, gates, invariants, quantum, rep

import checks

# --- sizes (README "Inputs" explains the choice) ---------------------------
TAU_N, TAU_L, CONJ_L = 8, 16, 2
BRACKET_L = 10
LINK_K, LINK_CONJ_L, LINK_SQUARES = 13, 4, 9
DENSE_N, DENSE_L, CIRCUIT_LETTERS, CIRCUIT_LOCALS = 8, 24, 12, 12
TELEPORT_N, TELEPORT_LETTERS, TELEPORT_LOCALS = 3, 4, 4
SHOTS = 4096


def random_letters(rng, n: int, length: int) -> tuple[int, ...]:
    gens = rng.integers(1, n, size=length)
    signs = rng.choice((-1, 1), size=length)
    return tuple(int(s * g) for s, g in zip(signs, gens))


def random_unitary2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_phases(rng) -> tuple[complex, ...]:
    return tuple(complex(np.exp(1j * t)) for t in rng.uniform(0, 2 * np.pi, 4))


def random_circuit(rng, n: int, letters: int, locals_: int) -> list[tuple]:
    """Braid letters and single-strand local unitaries in a random order."""
    items = [("braid", g) for g in random_letters(rng, n, letters)]
    items += [("local", int(s), random_unitary2(rng)) for s in rng.integers(1, n + 1, locals_)]
    return [items[k] for k in rng.permutation(len(items))]


def as_circuit(n: int, items) -> rep.ExtendedCircuit:
    return rep.ExtendedCircuit(
        n,
        tuple(
            rep.BraidItem(it[1]) if it[0] == "braid" else rep.LocalItem(it[1], it[2])
            for it in items
        ),
    )


class Workload:
    """One round is a list of items; a run attempts whole rounds only."""

    ops_per_item = 1

    @staticmethod
    def warm() -> None:
        """Make one tiny call into each layer the workload uses, so lazy
        loads and first-call costs are paid before timing."""
        raise NotImplementedError

    def round(self, rng) -> list:
        return [self.draw(rng)]

    def draw(self, rng):
        raise NotImplementedError

    def run(self, inp, tracer):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class TauExact(Workload):
    """Exact integer traces: tau, one skein site and the closure data."""

    ops_per_item = 3

    def draw(self, rng):
        letters = random_letters(rng, TAU_N, TAU_L)
        conj = random_letters(rng, TAU_N, CONJ_L)
        return {
            "word": braidgate.BraidWord(TAU_N, letters),
            "site": int(rng.integers(TAU_L)),
            "conjugated": braidgate.BraidWord(
                TAU_N, conj + letters + tuple(-g for g in reversed(conj))
            ),
        }

    @staticmethod
    def warm():
        w = braidgate.BraidWord(3, (1, -2, 1))
        invariants.skein_check(w, 0)
        braid.closure_info(w)

    def run(self, inp, tracer):
        w = inp["word"]
        return (
            invariants.tau(w),
            invariants.skein_check(w, inp["site"]),
            braid.closure_info(w),
        )

    def check(self, inp, out):
        t, sk, info = out
        w, site = inp["word"], inp["site"]
        problems = checks.check_tau_value(w.n, w.letters, t)
        if (sk["tau"].mantissa, sk["tau"].exponent) != (t.mantissa, t.exponent):
            problems.append("skein_check's tau differs from tau")
        flipped = list(w.letters)
        flipped[site] = -flipped[site]
        deleted = w.letters[:site] + w.letters[site + 1 :]
        problems += checks.check_tau_value(w.n, flipped, sk["tau_flipped"], placed=False)
        problems += checks.check_tau_value(w.n, deleted, sk["tau_deleted"], placed=False)
        problems += checks.check_skein(w.letters, site, sk)
        conj = invariants.tau(inp["conjugated"])
        if (conj.mantissa, conj.exponent) != (t.mantissa, t.exponent):
            problems.append(f"tau changed under conjugation: {t} -> {conj}")
        problems += checks.check_closure(w.n, w.letters, info)
        return problems


# ---------------------------------------------------------------------------


def fixed_component_word(rng, k: int) -> tuple[int, ...]:
    """A word on k strands whose closure has exactly k components: a product
    of squared generators (a pure braid) conjugated by a random word."""
    x = random_letters(rng, k, LINK_CONJ_L)
    squares = []
    for g in random_letters(rng, k, LINK_SQUARES):
        squares += [g, g]
    return x + tuple(squares) + tuple(-g for g in reversed(x))


class StateSum(Workload):
    """Pure-Python 2^L and 2^k enumerations, no dense linear algebra."""

    ops_per_item = 3

    def draw(self, rng):
        theta = float(rng.uniform(0.1, 0.6))  # keeps the loop weight d away from 0
        a, c = (complex(np.exp(1j * t)) for t in rng.uniform(0, 2 * np.pi, 2))
        return {
            "word3": braidgate.BraidWord(3, random_letters(rng, 3, BRACKET_L)),
            "params": invariants.BracketParams.from_theta(theta),
            "wordk": braidgate.BraidWord(LINK_K, fixed_component_word(rng, LINK_K)),
            "a": a,
            "c": c,
        }

    @staticmethod
    def warm():
        w = braidgate.BraidWord(3, (1, -2, 1))
        p = invariants.BracketParams.from_theta(0.3)
        invariants.bracket_oracle(w, p)
        invariants.bracket3(w, p)
        invariants.linking_state_sum(w, 1.0, 1j)

    def run(self, inp, tracer):
        w3, p = inp["word3"], inp["params"]
        return (
            invariants.bracket_oracle(w3, p),
            invariants.bracket3(w3, p),
            invariants.linking_state_sum(inp["wordk"], inp["a"], inp["c"]),
        )

    def check(self, inp, out):
        oracle, value, (sigma, z) = out
        wk = inp["wordk"]
        return checks.check_bracket(oracle, value) + checks.check_linking(
            wk.n, wk.letters, inp["a"], inp["c"], sigma, z
        )


# ---------------------------------------------------------------------------


class DenseProtocol(Workload):
    """complex128 representations with local gates, plus the BLAS-backed
    quantum protocols and the 4x4 gate classifiers."""

    ops_per_item = 9

    def draw(self, rng):
        kind = str(rng.choice(("R", "R_prime", "D")))
        phases = random_phases(rng) if kind == "R_prime" else None
        op = {"R": gates.R, "D": gates.D}.get(kind)
        if op is None:
            op = gates.R_prime(*phases)
        letters = random_letters(rng, DENSE_N, DENSE_L)
        circ = random_circuit(rng, DENSE_N, CIRCUIT_LETTERS, CIRCUIT_LOCALS)
        circ3 = random_circuit(rng, TELEPORT_N, TELEPORT_LETTERS, TELEPORT_LOCALS)
        dim = 2**DENSE_N
        return {
            "kind": kind,
            "phases": phases,
            "op": op,
            "letters": letters,
            "word": braidgate.BraidWord(DENSE_N, letters),
            "circ": circ,
            "circuit": as_circuit(DENSE_N, circ),
            "circ3": circ3,
            "circuit3": as_circuit(TELEPORT_N, circ3),
            "psi": random_state(rng, 2**TELEPORT_N),
            "probes": (random_state(rng, dim), random_state(rng, dim)),
            "seeds": tuple(int(s) for s in rng.integers(0, 2**31, 3)),
        }

    @staticmethod
    def warm():
        u = rep.rep_matrix(braidgate.BraidWord(3, (1, -2, 1)), gates.R)
        quantum.sample_trace_probability(u, 16, 0)
        gates.is_entangling(gates.R)
        gates.cnot_count_class(gates.R)
        gates.check_ybe_braided(gates.R)
        rep.circuit_matrix(as_circuit(1, [("local", 1, gates.H)]), gates.R)
        quantum.teleport_protocol(gates.H, np.array([1.0, 0.0]), 0)

    def run(self, inp, tracer):
        op, seeds = inp["op"], inp["seeds"]
        u = rep.rep_matrix(inp["word"], op)
        c = rep.circuit_matrix(inp["circuit"], op)
        return (
            u,
            c,
            quantum.sample_trace_probability(u, SHOTS, seeds[0]),
            quantum.sample_trace_probability(c, SHOTS, seeds[1]),
            gates.check_ybe_braided(op),
            gates.is_entangling(op),
            gates.cnot_count_class(op),
            quantum.teleport_protocol(rep.circuit_matrix(inp["circuit3"], op), inp["psi"], seeds[2]),
        )

    def check(self, inp, out):
        u, c, (est_u, se_u), (est_c, se_c), ybe, verdict, cnot, (received, bits) = out
        kind, phases = inp["kind"], inp["phases"]
        own = checks.op_of(kind, phases)
        n, dim2 = DENSE_N, 4**DENSE_N
        word_items = [("braid", g) for g in inp["letters"]]
        problems = checks.check_rep_action(u, n, word_items, own, inp["probes"][0])
        problems += checks.check_rep_action(c, n, inp["circ"], own, inp["probes"][1])
        tr_u = complex(np.trace(u))
        if kind != "R":
            tr_own = checks.monomial_trace(n, inp["letters"], own)
            if abs(tr_u - tr_own) > 1e-9:
                problems.append(f"{kind} word trace {tr_u} != own propagation {tr_own}")
            tr_u = tr_own
        problems += checks.check_sampled(est_u, se_u, SHOTS, abs(tr_u) ** 2 / dim2)
        problems += checks.check_sampled(est_c, se_c, SHOTS, abs(np.trace(c)) ** 2 / dim2)
        problems += checks.check_gate_facts(kind, phases, ybe, verdict, cnot)
        target = checks.apply_items(inp["psi"], TELEPORT_N, inp["circ3"], own)
        problems += checks.check_teleport(received, bits, target, TELEPORT_N)
        return problems


# ---------------------------------------------------------------------------


# The child reports its import time as the first stderr line, which ``run``
# strips before the reply is checked.
LAUNCH = (
    "import sys, time; t0 = time.perf_counter(); from braidgate.cli import main; "
    "sys.stderr.write('bench-import-ms %r\\n' % ((time.perf_counter() - t0) * 1e3)); "
    "sys.stderr.flush(); main(prog_name='braidgate')"
)
IMPORT_MARK = b"bench-import-ms "
MATRIX_FILE = Path(__file__).resolve().parent / "out" / "cli-matrix.json"
# the Borromean rings, closure of (s1 s2^-1)^3
BORROMEAN = (1, -2, 1, -2, 1, -2)


def child_env(src: Path) -> dict:
    """Environment for a braidgate child process: the checkout's sources,
    one BLAS thread, and no tolerance override from the caller."""
    env = {k: v for k, v in os.environ.items() if k != "BRAIDGATE_TOL"}
    env["PYTHONPATH"] = str(src)
    return env


class Cli(Workload):
    """The README command list, each command a fresh braidgate process."""

    ops_per_item = 1

    def __init__(self):
        self.env = child_env(Path(braidgate.__file__).resolve().parents[1])

    @staticmethod
    def warm():
        importlib.import_module("braidgate.cli")

    def round(self, rng):
        matrix = checks.op_of("R_prime", random_phases(rng))
        MATRIX_FILE.parent.mkdir(exist_ok=True)
        MATRIX_FILE.write_text(
            json.dumps({"dim": 4, "entries": [[z.real, z.imag] for z in matrix.ravel()]})
        )
        sign = int(rng.choice((-1, 1)))
        a, c = (complex(np.exp(1j * t)) for t in rng.uniform(0, 2 * np.pi, 2))
        n_braid = 5
        word = random_letters(rng, n_braid, 12)
        word3 = random_letters(rng, 3, 6)
        theta = float(rng.uniform(0.1, 0.6))
        psi = random_state(rng, 4)
        seeds = [str(int(s)) for s in rng.integers(0, 2**31, 2)]
        bit = int(rng.integers(2))

        def text(n, letters):
            return f"n={n}; " + " ".join(map(str, letters))

        def cplx(z):
            return f"{z.real!r},{z.imag!r}"

        cmds = [
            (["ybe", "R"], {}),
            (["ybe", "D", "--form", "algebraic"], {}),
            (["ybe", "--matrix-file", str(MATRIX_FILE)], {}),
            (["gate", "R", "--classify"], {}),
            (["gate", "--decompose-verify", "qdq"], {}),
            (["gate", "--decompose-verify", "r0"], {}),
            (["gate", "--decompose-verify", "mrn"], {}),
            (["braid", text(n_braid, word)], {"n": n_braid, "letters": word}),
            (["invariant", "--link", "borromean", "--kind", "tau"], {}),
            (
                ["invariant", text(2, (sign, sign)), "--kind", "linking", "--a", cplx(a), "--c", cplx(c)],
                {"sign": sign, "a": a, "c": c},
            ),
            (
                ["invariant", text(3, word3), "--kind", "bracket", "--theta", repr(theta), "--check-oracle"],
                {"theta": theta},
            ),
            (["sim", "trace", "--gate", "R", "--shots", "100000", "--seed", seeds[0]], {}),
            (
                ["sim", "teleport", "--n", "2", "--gate", "CNOT", "--seed", seeds[1],
                 "--psi", json.dumps([[z.real, z.imag] for z in psi])],
                {"psi": psi},
            ),
            (["sim", "project", "--state", "branch", "--qubit", "1", "--bit", str(bit)], {"bit": bit}),
            (["catalog", "gates"], {}),
            (["catalog", "links"], {}),
            (["selftest", "--json"], {}),
        ]
        return [{"argv": argv, "expect": expect} for argv, expect in cmds]

    def run(self, inp, tracer):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH, *inp["argv"]], env=self.env, capture_output=True
        )
        t1 = time.perf_counter()
        head, _, stderr = proc.stderr.partition(b"\n")
        if not head.startswith(IMPORT_MARK):
            raise RuntimeError(f"launcher did not report its import: {head!r}")
        if tracer is not None:
            import_ms = float(head[len(IMPORT_MARK) :])
            verb = tracer.record(
                f"cli.verb.{inp['argv'][0]}", t0, t1, stdout_bytes=len(proc.stdout)
            )
            tracer.record("cli.import", t0, t0 + import_ms / 1e3, parent=verb)
        return proc.returncode, proc.stdout, stderr

    def check(self, inp, out):
        code, stdout, stderr = out
        argv, expect = inp["argv"], inp["expect"]
        label = " ".join(argv[:2])
        problems = []
        if code != 0:
            problems.append(f"{label}: exit code {code}")
        if stderr:
            problems.append(f"{label}: stderr {stderr[:200]!r}")
        try:
            reply = checks.parse_reply(stdout)
        except ValueError as exc:
            return problems + [f"{label}: {exc}"]
        return problems + [f"{label}: {p}" for p in check_cli_reply(argv, expect, reply)]


def check_cli_reply(argv, expect, reply) -> list[str]:
    """The facts each documented command's reply must state."""
    verb, problems = argv[0], []

    def need(cond, what):
        if not cond:
            problems.append(what)

    if verb == "ybe":
        need(reply.get("ok") is True and reply.get("residual", 1.0) <= 1e-12,
             f"Yang-Baxter equation not solved: {reply}")
    elif verb == "gate" and "--classify" in argv:
        need(reply.get("unitary") is True and reply.get("entangling") is True
             and reply.get("cnot_class") == 1, f"R is not a one-CNOT entangler: {reply}")
    elif verb == "gate":
        need(reply.get("ok") is True and reply.get("target") == "CNOT"
             and reply.get("residual", 1.0) <= 1e-9, f"CNOT decomposition fails: {reply}")
    elif verb == "braid":
        n, letters = expect["n"], expect["letters"]
        _, counts, _ = checks.pair_crossings(n, letters)
        need(reply.get("letters") == list(letters) and reply.get("n") == n, "word echo differs")
        need(reply.get("components") == counts.shape[0], "component count differs")
        need(reply.get("writhe") == sum(1 if g > 0 else -1 for g in letters), "writhe differs")
        lk = sorted(2 * x[2] for x in reply.get("linking", []))
        own = sorted(int(counts[i, j]) for i in range(len(counts)) for j in range(i + 1, len(counts)))
        need(lk == own, f"linking numbers differ: {reply.get('linking')}")
    elif verb == "invariant" and "tau" in argv:
        tau = reply["tau"]
        value = SimpleNamespace(mantissa=tau["mantissa"], exponent=tau["sqrt2_exp"])
        problems += checks.check_tau_value(3, BORROMEAN, value)
        need(abs(tau["float"] - tau["mantissa"] * 2 ** (tau["sqrt2_exp"] / 2)) <= 1e-9,
             "tau float disagrees with its mantissa")
    elif verb == "invariant" and "linking" in argv:
        ratio = (expect["c"] ** 2 / expect["a"] ** 2) ** expect["sign"]
        z = complex(*reply["z"])
        need(reply.get("components") == 2 and abs(z - 2 * (1 + ratio)) <= 1e-9,
             f"Hopf link Z {z} != 2(1 + (c^2/a^2)^{expect['sign']})")
    elif verb == "invariant":
        theta = expect["theta"]
        value, oracle = complex(*reply["value"]), complex(*reply["oracle"])
        need(reply.get("ok") is True and abs(value - oracle) <= 1e-9,
             f"bracket disagrees with its state sum: {value} vs {oracle}")
        need(abs(complex(*reply["d"]) + 2 * np.cos(2 * theta)) <= 1e-12, "loop weight differs")
    elif verb == "sim" and argv[1] == "trace":
        need(abs(reply["exact_p"] - 0.5) <= 1e-12, f"|tr R|^2/16 is {reply['exact_p']}")
        need(checks.binomial_tail_ok(round(reply["estimate"] * 100000), 100000, 0.5),
             f"estimate {reply['estimate']} beyond 6 sigma of 0.5")
    elif verb == "sim" and argv[1] == "teleport":
        received = np.array([complex(*z) for z in reply["received"]])
        target = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]) @ expect["psi"]
        need(reply.get("matches_gate_action") is True and len(reply.get("bits", "")) == 4
             and checks.same_up_to_phase(received, target / np.linalg.norm(target)),
             "teleported state is not CNOT psi")
    elif verb == "sim":
        residual = np.array([complex(*z) for z in reply["residual"]])
        expected = np.array([0, 1, 1, 0] if expect["bit"] else [1, 1, 0, 0]) / np.sqrt(2)
        need(abs(reply["prob"] - 0.5) <= 1e-12 and reply["entangled"] is bool(expect["bit"])
             and np.max(np.abs(residual - expected)) <= 1e-12, f"branch projection differs: {reply}")
    elif verb == "catalog" and argv[1] == "gates":
        need({"R", "D", "CNOT"} <= set(reply.get("gates", [])), "gate catalog incomplete")
    elif verb == "catalog":
        need({"hopf", "borromean"} <= set(reply.get("links", {})), "link catalog incomplete")
    elif verb == "selftest":
        rows = reply.get("checks", [])
        need(reply.get("ok") is True and rows and all(r["pass"] for r in rows), "selftest fails")
    return problems
