"""Command-line surface: every verifier, invariant, and simulation.

Verbs: ybe, gate, braid, invariant, sim, catalog, selftest.  JSON is the
machine interface (keys sorted, deterministic for fixed flags and seed,
strict JSON with no NaN or Infinity); the selftest table is the one
human-first rendering.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 guard exceeded; ``_domain_errors`` is the one place that
maps the package's exceptions onto them; a ``--matrix-file`` that cannot
be read or parsed as a matrix is a usage error.  The env var BRAIDGATE_TOL
overrides default tolerances; a tolerance must be finite and >= 0.
``selftest`` evaluates ``_GOLDENS``, one table of (name, expected, compute)
rows and the one place to add a check.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__, gates, invariants, quantum, tensor
from .braid import BraidWord, braid_to_json, markov_conjugate, markov_stabilize, parse_braid
from .errors import GuardError, SingularBracketError, ZeroProbabilityError
from .invariants import BracketParams, bracket3, bracket_oracle, link_names, link_word, tau


def _default_tol(fallback: float) -> float:
    env = os.environ.get("BRAIDGATE_TOL")
    if env is None:
        return fallback
    try:
        return float(env)
    except ValueError:
        raise click.UsageError(f"BRAIDGATE_TOL={env!r} is not a number") from None


def _pick_tol(explicit: float | None, fallback: float) -> float:
    tol = explicit if explicit is not None else _default_tol(fallback)
    if not (math.isfinite(tol) and tol >= 0):
        raise click.UsageError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def _emit(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True, allow_nan=False))


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _vec(v) -> list[list[float]]:
    return [_c(z) for z in np.asarray(v).reshape(-1)]


def _domain_errors(fn):
    """Map exceptions to the documented exit codes: a guard exceeded
    exits 3, a failed domain check exits 1, and any other ValueError is a
    usage error (exit 2)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GuardError as exc:
            _emit({"error": str(exc)})
            sys.exit(3)
        except (SingularBracketError, ZeroProbabilityError, AssertionError) as exc:
            _emit({"error": str(exc)})
            sys.exit(1)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None

    return wrapper


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"{flag} expects 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise click.UsageError(f"{flag} expects 're,im', got {text!r}") from None


def _parse_state(text: str) -> np.ndarray:
    try:
        pairs = json.loads(text)
        return np.array([complex(re, im) for re, im in pairs])
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"bad state JSON: {exc}") from None


def _resolve(gate_name: str | None, matrix_file: str | None) -> tuple[np.ndarray, str]:
    if matrix_file is not None:
        try:
            with open(matrix_file) as fh:
                m = tensor.matrix_from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise click.UsageError(f"cannot load matrix file: {exc}") from None
        return m, f"file:{matrix_file}"
    if gate_name is None:
        raise click.UsageError("provide a gate name or --matrix-file")
    try:
        return gates.resolve_gate(gate_name), gate_name
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        raise click.UsageError(str(msg)) from None


@click.group()
@click.version_option(__version__, prog_name="braidgate")
def main() -> None:
    """Braiding operators as quantum gates: verifiers, invariants, sims."""


# ---------------------------------------------------------------------------
# ybe
# ---------------------------------------------------------------------------


@main.command()
@click.argument("gate_name", metavar="[GATE]", required=False)
@click.option("--matrix-file", type=click.Path(), help="4x4 matrix as JSON instead of a catalog name.")
@click.option("--form", type=click.Choice(["braided", "algebraic"]), default="braided", show_default=True)
@click.option("--tol", type=float, default=None, help="Residual tolerance [default: BRAIDGATE_TOL or 1e-12].")
@_domain_errors
def ybe(gate_name, matrix_file, form, tol) -> None:
    """Check a 4x4 gate against the braided or algebraic Yang-Baxter equation."""
    m, label = _resolve(gate_name, matrix_file)
    tol = _pick_tol(tol, tensor.EXACT_EPS)
    check = gates.check_ybe_braided if form == "braided" else gates.check_ybe_algebraic
    res = check(m)
    ok = res <= tol
    _emit({"gate": label, "form": form, "residual": res, "tol": tol, "ok": ok})
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


@main.command("gate")
@click.argument("gate_name", metavar="[GATE]", required=False)
@click.option("--matrix-file", type=click.Path(), help="Matrix as JSON instead of a catalog name.")
@click.option("--classify", is_flag=True, help="Entangling verdict and CNOT-count class.")
@click.option(
    "--decompose-verify",
    type=click.Choice(sorted(gates.DECOMPOSITIONS)),
    default=None,
    help="Re-derive a CNOT decomposition and report the residual.",
)
@click.option("--tol", type=float, default=None, help="Tolerance [default: BRAIDGATE_TOL or 1e-9].")
@_domain_errors
def gate_cmd(gate_name, matrix_file, classify, decompose_verify, tol) -> None:
    """Classify a two-qubit gate or verify one of the CNOT decompositions."""
    if classify == (decompose_verify is not None):
        raise click.UsageError("choose exactly one of --classify / --decompose-verify")
    tol = _pick_tol(tol, tensor.PHASE_EPS)
    if classify:
        m, label = _resolve(gate_name, matrix_file)
        unitary = tensor.is_unitary(m, eps=tol)
        report = {"gate": label, "unitary": unitary, "entangling": None, "cnot_class": None}
        if unitary and m.shape == (4, 4):
            verdict = gates.is_entangling(m, eps=tol)
            cc = gates.cnot_count_class(m)
            report["entangling"] = verdict.entangling
            report["schmidt_ranks"] = list(verdict.schmidt_ranks)
            report["cnot_class"] = cc.cls
            report["gamma_trace"] = _c(cc.gamma_trace)
        _emit(report)
        sys.exit(0)
    result = gates.DECOMPOSITIONS[decompose_verify]()
    res = float(result["residual"])
    ok = res <= tol
    _emit(
        {
            "route": decompose_verify,
            "target": "CNOT",
            "residual": res,
            "phase": _c(result.get("phase", 1.0)),
            "tol": tol,
            "ok": ok,
        }
    )
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# braid
# ---------------------------------------------------------------------------


@main.command()
@click.argument("word")
@_domain_errors
def braid(word) -> None:
    """Echo a braid word with its closure data (components, writhe, linking)."""
    _emit(braid_to_json(parse_braid(word)))


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------


@main.command()
@click.argument("word", required=False)
@click.option("--link", "link_name", default=None, help="Named link from the catalog instead of a word.")
@click.option("--kind", type=click.Choice(["tau", "bracket", "linking"]), required=True)
@click.option("--a", "a_weight", default=None, help="Equal-label vertex weight 're,im' (linking).")
@click.option("--c", "c_weight", default=None, help="Unequal-label vertex weight 're,im' (linking).")
@click.option("--theta", type=float, default=None, help="Bracket angle; A = exp(i theta).")
@click.option("--A", "a_var", default=None, help="Bracket variable 're,im' (alternative to --theta).")
@click.option("--check-oracle", is_flag=True, help="Cross-check the bracket against the state-sum oracle.")
@click.option("--tol", type=float, default=None, help="Oracle tolerance [default: BRAIDGATE_TOL or 1e-9].")
@_domain_errors
def invariant(word, link_name, kind, a_weight, c_weight, theta, a_var, check_oracle, tol) -> None:
    """Evaluate a link invariant on the closure of a braid word."""
    if (word is None) == (link_name is None):
        raise click.UsageError("provide a braid word or --link, not both")
    if link_name is not None:
        try:
            b = link_word(link_name)
        except KeyError as exc:
            raise click.UsageError(exc.args[0]) from None
    else:
        b = parse_braid(word)

    if kind == "tau":
        value = tau(b)
        _emit(
            {
                "tau": {
                    "mantissa": value.mantissa,
                    "sqrt2_exp": value.exponent,
                    "float": value.to_float(),
                },
                "equivalence_class": f"mantissa={value.mantissa}",
                "writhe": b.writhe,
            }
        )
        return

    if kind == "linking":
        if a_weight is None or c_weight is None:
            raise click.UsageError("--kind linking needs --a and --c")
        a = _parse_complex(a_weight, "--a")
        c = _parse_complex(c_weight, "--c")
        sigma, z = invariants.linking_state_sum(b, a, c)
        info = braid_to_json(b)
        _emit(
            {
                "components": info["components"],
                "writhe": info["writhe"],
                "sigma": _c(sigma),
                "z": _c(z),
            }
        )
        return

    # kind == "bracket"
    if (theta is None) == (a_var is None):
        raise click.UsageError("--kind bracket needs exactly one of --theta / --A")
    params = (
        BracketParams.from_theta(theta)
        if theta is not None
        else BracketParams.from_A(_parse_complex(a_var, "--A"))
    )
    value = bracket3(b, params)
    report = {
        "A": _c(params.A),
        "d": _c(params.d),
        "writhe": b.writhe,
        "value": _c(value),
    }
    if check_oracle:
        tol = _pick_tol(tol, tensor.PHASE_EPS)
        oracle = bracket_oracle(b, params)
        res = abs(value - oracle)
        report["oracle"] = _c(oracle)
        report["oracle_residual"] = res
        report["ok"] = res <= tol
        _emit(report)
        sys.exit(0 if report["ok"] else 1)
    _emit(report)


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------


@main.group()
def sim() -> None:
    """Simulate the entangled-measurement protocols."""


@sim.command()
@click.option("--gate", "gate_name", default=None, help="Catalog gate name.")
@click.option("--matrix-file", type=click.Path(), help="Unitary as JSON.")
@click.option("--shots", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_domain_errors
def trace(gate_name, matrix_file, shots, seed) -> None:
    """Estimate |tr U|^2 / 4^n by sampling the cup-state measurement."""
    m, _ = _resolve(gate_name, matrix_file)
    exact = quantum.exact_trace_probability(m)
    est, stderr = quantum.sample_trace_probability(m, shots, seed)
    _emit({"exact_p": exact, "estimate": est, "stderr": stderr, "shots": shots, "seed": seed})


@sim.command()
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--gate", "gate_name", default=None, help="Catalog gate name.")
@click.option("--matrix-file", type=click.Path(), help="Unitary as JSON.")
@click.option("--psi", "psi_text", default=None, help="State as JSON [[re,im],...]; default drawn from the seed.")
@click.option("--seed", type=int, default=0, show_default=True)
@_domain_errors
def teleport(n_qubits, gate_name, matrix_file, psi_text, seed) -> None:
    """Teleport a state through the cup while applying a gate."""
    m, label = _resolve(gate_name, matrix_file)
    dim = 2**n_qubits
    if m.shape[0] != dim:
        raise click.UsageError(f"gate {label} is {m.shape[0]}-dimensional, --n {n_qubits} needs {dim}")
    if psi_text is not None:
        psi = _parse_state(psi_text)
        if psi.shape[0] != dim:
            raise click.UsageError(f"state has {psi.shape[0]} amplitudes, expected {dim}")
    else:
        rng = np.random.default_rng((seed, 1))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    received, bits = quantum.teleport_protocol(m, psi, seed)
    _emit(
        {
            "n": n_qubits,
            "seed": seed,
            "bits": "".join(str(x) for x in bits),
            "received": _vec(received),
            "matches_gate_action": True,
        }
    )


@sim.command()
@click.option("--state", "state_name", type=click.Choice(["ghz", "branch"]), default=None)
@click.option("--psi", "psi_text", default=None, help="State as JSON [[re,im],...].")
@click.option("--qubit", type=int, required=True, help="1-based qubit index.")
@click.option("--bit", type=click.IntRange(0, 1), required=True)
@_domain_errors
def project(state_name, psi_text, qubit, bit) -> None:
    """Project one qubit of a pure state and classify the residual."""
    if (state_name is None) == (psi_text is None):
        raise click.UsageError("provide exactly one of --state / --psi")
    if state_name is not None:
        psi = quantum.ghz_state() if state_name == "ghz" else quantum.branch_state()
        label = state_name
    else:
        psi = _parse_state(psi_text)
        label = "custom"
    result = quantum.project_qubit(psi, qubit, bit)
    verdict = {True: "entangled", False: "unentangled", None: "unclassified"}[result.entangled]
    _emit(
        {
            "state": label,
            "qubit": qubit,
            "bit": bit,
            "prob": result.prob,
            "entangled": result.entangled,
            "verdict": verdict,
            "residual": _vec(result.residual),
        }
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@main.command()
@click.argument("what", type=click.Choice(["gates", "links"]))
def catalog(what) -> None:
    """List the built-in gate names or the named-link catalog."""
    if what == "gates":
        _emit({"gates": gates.catalog_names()})
    else:
        _emit({"links": {name: link_word(name).as_text() for name in link_names()}})


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


# Each row is (name, expected, compute).  A compute reads ``gates.*`` when it
# runs, so a mutated catalog gate fails its rows; a compute that raises
# reports an "error:" row instead of stopping the table.
_GOLDENS = (
    # the braiding gate itself
    ("R_unitary", True, lambda: tensor.is_unitary(gates.R)),
    ("R8_identity", 0.0, lambda: tensor.residual(np.linalg.matrix_power(gates.R, 8), np.eye(4))),
    (
        "R_plus_Rinv_sqrt2",
        0.0,
        lambda: tensor.residual(gates.R + np.linalg.inv(gates.R), np.sqrt(2) * np.eye(4)),
    ),
    (
        "R_bell_columns",
        0.0,
        lambda: tensor.residual(
            gates.R,
            np.array([[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]], dtype=complex)
            / np.sqrt(2),
        ),
    ),
    (
        "partial_trace_R",
        0.0,
        lambda: tensor.residual(tensor.partial_trace_last(gates.R, 2), np.sqrt(2) * np.eye(2)),
    ),
    (
        "partial_trace_Rinv",
        0.0,
        lambda: tensor.residual(
            tensor.partial_trace_last(np.linalg.inv(gates.R), 2), np.sqrt(2) * np.eye(2)
        ),
    ),
    ("trace_R", complex(2 * np.sqrt(2), 0), lambda: quantum.trace_amplitude(gates.R)),
    # Yang-Baxter residuals
    ("ybe_braided_R", 0.0, lambda: gates.check_ybe_braided(gates.R)),
    ("ybe_braided_SWAP", 0.0, lambda: gates.check_ybe_braided(gates.SWAP)),
    ("ybe_algebraic_D", 0.0, lambda: gates.check_ybe_algebraic(gates.D)),
    (
        "ybe_algebraic_P",
        0.0,
        lambda: gates.check_ybe_algebraic(
            gates.P(*np.exp(1j * np.array([0.4, -1.1, 2.2, 0.9])))
        ),
    ),
    ("ybe_algebraic_SWAP_R", 0.0, lambda: gates.check_ybe_algebraic(gates.SWAP @ gates.R)),
    (
        "ybe_braided_Rprime",
        0.0,
        lambda: gates.check_ybe_braided(
            gates.R_prime(*np.exp(1j * np.array([0.3, 1.7, -0.5, 2.4])))
        ),
    ),
    # CNOT decompositions
    ("qdq_residual", 0.0, lambda: gates.verify_qdq()["residual"]),
    ("r0_route_ok", True, lambda: gates.verify_r0_decomposition()["ok"]),
    ("mrn_route_ok", True, lambda: gates.verify_mrn_decomposition()["ok"]),
    # entangling / CNOT-count classification
    ("entangling_R", True, lambda: gates.is_entangling(gates.R).entangling),
    ("entangling_R0", True, lambda: gates.is_entangling(gates.R0).entangling),
    ("entangling_SWAP", False, lambda: gates.is_entangling(gates.SWAP).entangling),
    (
        "entangling_Rprime_ad_ne_bc",
        True,
        lambda: gates.is_entangling(
            gates.R_prime(*np.exp(1j * np.array([0.2, 0.9, -1.3, 2.0])))
        ).entangling,
    ),
    (
        "entangling_Rprime_ad_eq_bc",
        False,
        lambda: gates.is_entangling(gates.R_prime(1, 1, 1, 1)).entangling,
    ),
    ("cnot_class_local", 0, lambda: gates.cnot_count_class(np.kron(gates.H, gates.SIGMA)).cls),
    ("cnot_class_R", 1, lambda: gates.cnot_count_class(gates.R).cls),
    ("cnot_class_CNOT", 1, lambda: gates.cnot_count_class(gates.CNOT).cls),
    # exact link invariants
    *(
        (f"tau_{name}", f"{mant}*sqrt2^{expo}", lambda name=name: str(tau(link_word(name))))
        for name, mant, expo in (
            ("unlink3", 1, 6),
            ("hopf", 0, 0),
            ("trefoil", -1, 3),
            ("figure8", -1, 4),
            ("borromean", -1, 6),
            ("whitehead", -1, 5),
        )
    ),
    (
        "tau_powers_of_s",
        "4 2.8284 0 -2.8284 -4 -2.8284 0 2.8284",
        lambda: " ".join(f"{tau(BraidWord(2, (1,) * k)).to_float():.5g}" for k in range(8)),
    ),
    (
        "tau_period_8",
        True,
        lambda: all(
            tau(BraidWord(2, (1,) * (k + 8))) == tau(BraidWord(2, (1,) * k)) for k in range(8)
        ),
    ),
    (
        "tau_markov_conjugation",
        True,
        lambda: tau(markov_conjugate(parse_braid("1 2 -1"), parse_braid("n=3; 2 1")))
        == tau(parse_braid("1 2 -1")),
    ),
    (
        "tau_markov_stabilization",
        True,
        lambda: tau(markov_stabilize(parse_braid("1 1 1"), +1))
        == tau(parse_braid("1 1 1")).scaled_sqrt2(1),
    ),
    (
        "skein_three_term",
        True,
        lambda: invariants.skein_check(parse_braid("1 -2 1 -2"), 2)["holds"],
    ),
    # linking-number state sum
    (
        "hopf_linking_z",
        0.0,
        lambda: abs(
            invariants.linking_state_sum(parse_braid("1 1"), np.exp(0.3j), np.exp(-0.7j))[1]
            - 2 * (1 + (np.exp(-0.7j) / np.exp(0.3j)) ** 2)
        ),
    ),
    # Temperley-Lieb representation and bracket
    (
        "tl_braid_relation",
        0.0,
        lambda: tensor.residual(
            *(
                invariants.tl_rep3(parse_braid(word), BracketParams.from_theta(np.pi / 8))
                for word in ("n=3; 1 2 1", "n=3; 2 1 2")
            )
        ),
    ),
    (
        "tl_unitary_in_window",
        True,
        lambda: tensor.is_unitary(
            invariants.tl_rep3(parse_braid("n=3; 2"), BracketParams.from_theta(np.pi / 8)), eps=1e-9
        ),
    ),
    ("tl_trace_U1", complex(-1.5, 0), lambda: complex(np.trace(gates.U1(-1.5)))),
    ("tl_trace_U2", complex(-1.5, 0), lambda: complex(np.trace(gates.U2(-1.5)))),
    ("tl_trace_U1U2", complex(1, 0), lambda: complex(np.trace(gates.U1(-1.5) @ gates.U2(-1.5)))),
    (
        "tl_hook_relations",
        0.0,
        lambda: max(
            tensor.residual(gates.U1(-1.5) @ gates.U2(-1.5) @ gates.U1(-1.5), gates.U1(-1.5)),
            tensor.residual(gates.U2(-1.5) @ gates.U1(-1.5) @ gates.U2(-1.5), gates.U2(-1.5)),
        ),
    ),
    (
        "bracket_identity_d2",
        0.0,
        lambda: max(
            abs(bracket3(BraidWord(3), p := BracketParams.from_theta(0.37)) - p.d**2),
            abs(bracket_oracle(BraidWord(3), p) - p.d**2),
        ),
    ),
    (
        "bracket_vs_oracle",
        0.0,
        lambda: abs(
            bracket3(b := parse_braid("1 -2 1 -2"), p := BracketParams.from_theta(0.3))
            - bracket_oracle(b, p)
        ),
    ),
    # cup-state protocols
    (
        "delta_norm_n3",
        complex(8, 0),
        lambda: complex(np.vdot(quantum.make_delta(3), quantum.make_delta(3))),
    ),
    ("trace_identity_n2", complex(4, 0), lambda: quantum.trace_amplitude(np.eye(4))),
    (
        "teleport_identity",
        0.0,
        lambda: float(
            np.min(
                [
                    np.max(
                        np.abs(
                            quantum.teleport_protocol(np.eye(2), np.array([1.0, 0.0]), seed=3)[0]
                            - phase * np.array([1.0, 0.0])
                        )
                    )
                    for phase in (1, -1, 1j, -1j)
                ]
            )
        ),
    ),
    (
        "basis_lemma_family",
        True,
        lambda: quantum.basis_orthogonality(np.array([[3 / 5, 4j / 5], [4j / 5, 3 / 5]]))[0],
    ),
    (
        "basis_lemma_counterexample",
        False,
        lambda: quantum.basis_orthogonality(np.diag([1.0, 2.0]))[0],
    ),
    # projection examples
    (
        "branch_projection",
        "0.5/unentangled 0.5/entangled",
        lambda: " ".join(
            f"{r.prob:.3g}/{'entangled' if r.entangled else 'unentangled'}"
            for r in (
                quantum.project_qubit(quantum.branch_state(), 1, 0),
                quantum.project_qubit(quantum.branch_state(), 1, 1),
            )
        ),
    ),
    (
        "ghz_projection",
        True,
        lambda: all(
            quantum.project_qubit(quantum.ghz_state(), k, bit).entangled is False
            for k in (1, 2, 3)
            for bit in (0, 1)
        ),
    ),
)


def _selftest_row(name: str, expected, compute) -> dict:
    row = {"name": name, "expected": _fmt(expected)}
    try:
        computed = compute()
        row["computed"] = _fmt(computed)
        row["pass"] = bool(
            np.isclose(expected, computed, rtol=0, atol=1e-9)
            if isinstance(expected, (int, float, complex)) and not isinstance(expected, bool)
            else expected == computed
        )
    except Exception as exc:  # a broken build should name its failures
        row["computed"], row["pass"] = f"error: {exc}", False
    return row


@main.command()
@click.option("--json", "as_json", is_flag=True, help="Machine-readable pass/fail list.")
def selftest(as_json) -> None:
    """Recompute the frozen reference numbers and compare."""
    rows = [_selftest_row(*g) for g in _GOLDENS]
    ok = all(r["pass"] for r in rows)
    if as_json:
        _emit({"checks": rows, "ok": ok})
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            status = "ok  " if r["pass"] else "FAIL"
            click.echo(
                f"{status}  {r['name']:<{width}}  expected {r['expected']}  computed {r['computed']}"
            )
        failed = [r["name"] for r in rows if not r["pass"]]
        if failed:
            click.echo(f"{len(failed)}/{len(rows)} checks failed: {', '.join(failed)}")
        else:
            click.echo(f"all {len(rows)} checks passed")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
