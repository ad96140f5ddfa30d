"""Command-line front end.

Subcommands: analyze, k1, verify, grassmann-scan, fixtures.  A command
only parses its arguments, loads its input, calls the library and emits:
``analyze`` is one ``certify.decide`` and ``verify`` one ``certify.check``.
Every command prints one machine-readable JSON report, on one line, to
stdout (and optionally to --json-out); timing lives in a dedicated
"timings" field so reports are byte-identical across runs with the same
seed once that field is dropped.

Exit codes: 0 trivial certified (or artifact verified), 10 non-trivial
measure found, 20 inconclusive, 2 input/schema violation, 3 construction
precondition failure, 1 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .certify import LAMBDA_TOL, SCAN_SAMPLES, check, decide, genericity_block, grassmann_genericity
from .conslaw import (
    AtomConstructionError,
    FluxFunction,
    IterationError,
    build_atoms,
    five_atom_measure,
    iterate_weights,
    negative_branch_evidence,
    push_forward_to_K1,
    support_radius,
)
from .fixtures import builtin, builtin_names, kr_measure, v0_subspace
from .subspace import Subspace

EXIT_TRIVIAL = 0
EXIT_VERIFIED = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_NONTRIVIAL = 10
EXIT_INCONCLUSIVE = 20
_ANALYZE_EXIT = {"trivial": EXIT_TRIVIAL, "nontrivial": EXIT_NONTRIVIAL, "inconclusive": EXIT_INCONCLUSIVE}


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _emit(report, json_out=None):
    """One line of JSON to --json-out and then to stdout.

    With no indent ``json`` takes its C encoder.  The file is written
    first, so a reader that has closed stdout does not cost it; a broken
    pipe on stdout is not an error of the command, and stdout is pointed
    at os.devnull so that the flush at exit does not raise it again.
    """
    text = json.dumps(report, sort_keys=True, default=str)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report(command, inputs, seed=None):
    return {
        "command": command,
        "inputs_digest": _digest(inputs),
        "seed": seed,
        "version": __version__,
        "verdicts": [],
        "timings": {},
    }


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    try:
        obj = _load_json(args.subspace)
        K = Subspace.from_json(obj)
        if args.budget < 0:
            raise ValueError("--budget must be non-negative")
        if args.seed < 0:
            raise ValueError("--seed must be non-negative")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _emit({"command": "analyze", "error": str(exc)}, args.json_out)
        return EXIT_SCHEMA
    report = _report("analyze", obj, seed=args.seed)
    report["subspace"] = {"m": K.m, "n": K.n, "d": K.d}
    decision = decide(K, args.budget, args.seed)
    report.update(verdicts=decision.verdicts, timings=decision.timings, conclusion=decision.conclusion)
    if decision.verdict == "trivial":
        report["certificate"] = decision.artifact.to_json(K)
    elif decision.verdict == "nontrivial":
        report["measure"] = decision.artifact.to_json()
    _emit(report, args.json_out)
    return _ANALYZE_EXIT[decision.verdict]


# ---------------------------------------------------------------------------
# k1
# ---------------------------------------------------------------------------

def _build_atoms_halving(flux, alpha, s0, t0):
    """``build_atoms`` at the offsets (s0, t0).  At a positive base slope
    the construction is local, so offsets too large for it are halved
    together and tried again, at most 30 times."""
    for _ in range(30):
        try:
            return build_atoms(flux, alpha, s0, t0)
        except AtomConstructionError:
            if flux.a_prime(alpha[1]) <= 0:
                raise
        s0, t0 = s0 / 2, t0 / 2
    return build_atoms(flux, alpha, s0, t0)


def cmd_k1(args):
    inputs = {
        "flux": args.flux,
        "alpha": [args.alpha1, args.alpha2],
        "s0": args.s0,
        "t0": args.t0,
        "eps": args.eps,
    }
    report = _report("k1", inputs, seed=0)
    try:
        for option, value in (("--alpha1", args.alpha1), ("--alpha2", args.alpha2),
                              ("--s0", args.s0), ("--t0", args.t0)):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, not %r" % (option, value))
            if option in ("--s0", "--t0") and value <= 0:
                raise ValueError("%s must be positive, not %r" % (option, value))
        flux = FluxFunction.named(args.flux)
        eps = None if args.eps == "auto" else float(args.eps)
        if eps is not None and not 0 < eps < 1:
            raise ValueError('--eps must be "auto" or a number in (0, 1), not %s' % args.eps)
    except ValueError as exc:
        report["error"] = str(exc)
        _emit(report, args.json_out)
        return EXIT_SCHEMA
    alpha = (args.alpha1, args.alpha2)
    t0 = time.perf_counter()
    # a flux expression raises ValueError where it is undefined; at the
    # base state or an atom that is a failed precondition, like the
    # AtomConstructionError of build_atoms
    try:
        system = _build_atoms_halving(flux, alpha, args.s0, args.t0)
    except ValueError as exc:
        report["error"] = str(exc)
        # after an AtomConstructionError a'(alpha2) is defined
        if isinstance(exc, AtomConstructionError) and flux.a_prime(args.alpha2) < 0:
            try:
                report["negative_branch_evidence"] = negative_branch_evidence(
                    flux, alpha, delta=max(args.s0, args.t0), samples=10000
                )
            except ValueError as undefined:
                report["error"] += "; no sign evidence: %s" % undefined
        _emit(report, args.json_out)
        return EXIT_PRECONDITION
    report["system"] = system.to_json()
    if eps is None:
        eps = system.eps0 / 2
    try:
        result = iterate_weights(system, eps)
        mu_alpha, rep_alpha = five_atom_measure(system, result)
        pushed, rep_pushed = push_forward_to_K1(mu_alpha, flux, alpha)
    except (IterationError, ValueError, RuntimeError) as exc:
        report["error"] = str(exc)
        _emit(report, args.json_out)
        return EXIT_PRECONDITION
    report["timings"]["construction"] = time.perf_counter() - t0
    report["iteration"] = result.to_json()
    report["measure_stripped"] = mu_alpha.to_json()
    report["measure"] = pushed.to_json()
    report["verdicts"] = [
        {"operation": "iterate_weights", "converged": True, "g_norm": result.g_norm,
         "steps": len(result.trace)},
        {"operation": "five_atom_measure", "max_residual": rep_alpha.max_residual(),
         "verdict": rep_alpha.verdict},
        {"operation": "push_forward_to_K1", "max_residual": rep_pushed.max_residual(),
         "verdict": rep_pushed.verdict, "support_radius": support_radius(pushed)},
    ]
    report["conclusion"] = "five-atom measure constructed and pushed to the full manifold"
    _emit(report, args.json_out)
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    report = {"command": "verify"}
    try:
        obj = _load_json(args.artifact)
        # the artifact's own timings change from run to run; its digest skips them
        report = _report("verify", {k: v for k, v in obj.items() if k != "timings"}
                         if isinstance(obj, dict) else obj)
        ok, report["verdicts"], report["conclusion"] = check(obj)
    except (OSError, ValueError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        report["error"] = str(exc)
        _emit(report, args.json_out)
        return EXIT_SCHEMA
    _emit(report, args.json_out)
    return EXIT_VERIFIED if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# grassmann scan
# ---------------------------------------------------------------------------

# W0 and W1 of a chart are transversal when its rows' |det| is at least this
DET_FLOOR = 1e-8


def _draw_charts(k, p, seeds):
    """The subspaces of the scan's charts at ``seeds``, as a kernel block.

    Chart i is drawn from its own ``default_rng(seeds[i])``: its p x p
    W0/W1 rows, drawn again while their |det| is below ``DET_FLOOR``, then
    its (p - k) x k matrix A; its subspace has the basis W0 + A^T W1.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.empty((len(rngs), p, p))
    A = np.empty((len(rngs), p - k, k))
    for rng, chart in zip(rngs, rows):
        rng.standard_normal(out=chart)
    for i in np.flatnonzero(np.abs(np.linalg.det(rows)) < DET_FLOOR):
        while abs(np.linalg.det(rows[i])) < DET_FLOOR:
            rngs[i].standard_normal(out=rows[i])
    for rng, chart_A in zip(rngs, A):
        rng.standard_normal(out=chart_A)
    return rows[:, :k] + A.transpose(0, 2, 1) @ rows[:, k:]


def cmd_grassmann_scan(args):
    k, m, n = args.k, args.m, args.n
    inputs = {"k": k, "m": m, "n": n, "samples": args.samples, "seed": args.seed}
    report = _report("grassmann-scan", inputs, seed=args.seed)
    if args.samples < 0:
        report["error"] = "--samples must be non-negative"
    elif k > m * n or k < 1 or m < 2 or n < 2:
        report["error"] = "bad dimensions"
    elif args.seed < 0:
        report["error"] = "--seed must be non-negative"
    if "error" in report:
        _emit(report, args.json_out)
        return EXIT_SCHEMA
    try:
        if args.samples > SCAN_SAMPLES:
            raise ValueError("%d samples are over the limit of %d: the report keeps every sample"
                             % (args.samples, SCAN_SAMPLES))
        block = genericity_block(k, m, n)
    except ValueError as exc:
        report["error"] = str(exc)
        _emit(report, args.json_out)
        return EXIT_PRECONDITION
    t0 = time.perf_counter()
    results = []
    for start in range(args.seed, args.seed + args.samples, block):
        seeds = range(start, min(start + block, args.seed + args.samples))
        for seed, rep in zip(seeds, grassmann_genericity(k, m, n, _draw_charts(k, m * n, seeds))):
            results.append({
                "seed": seed,
                "lambda": rep.lambda_value,
                "span_dim": rep.span_dim,
                "pd_found": rep.min_eigenvalue is not None and rep.min_eigenvalue > 0,
                "min_eigenvalue": rep.min_eigenvalue,
            })
    nonzero = sum(1 for r in results if abs(r["lambda"]) > LAMBDA_TOL)
    pd_found = sum(1 for r in results if r["pd_found"])
    report["kind"] = "grassmann-scan"
    report["inputs"] = inputs
    report["lambda_tol"] = LAMBDA_TOL
    report["samples"] = results
    report["summary"] = {
        "lambda_nonzero_fraction": nonzero / max(1, len(results)),
        "pd_fraction": pd_found / max(1, len(results)),
        "target_span_dim": k * (k + 1) // 2,
    }
    if 2 * k <= min(m, n):
        V0 = v0_subspace(k, m, n)
        [rep] = grassmann_genericity(k, m, n, [V0.basis_float()])
        report["v0_probe"] = {
            "lambda": rep.lambda_value,
            "lambda_nonzero": abs(rep.lambda_value) > LAMBDA_TOL,
            "span_dim": rep.span_dim,
            "exact_span_dim": V0.span_dim(),
        }
    report["timings"]["scan"] = time.perf_counter() - t0
    report["verdicts"].append(
        {
            "operation": "grassmann_genericity",
            "fraction_generic": report["summary"]["pd_fraction"],
        }
    )
    _emit(report, args.json_out)
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def cmd_fixtures(args):
    if args.action == "list":
        entries = []
        for name in builtin_names():
            e = builtin(name)
            entries.append({"name": name, "expected": e.expected, "source": e.source,
                            "shape": [e.subspace.m, e.subspace.n], "d": e.subspace.d})
        _emit({"command": "fixtures", "fixtures": entries}, args.json_out)
        return EXIT_VERIFIED
    try:
        entry = builtin(args.name)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message
        _emit({"command": "fixtures", "error": exc.args[0]}, args.json_out)
        return EXIT_SCHEMA
    out = {
        "command": "fixtures",
        "name": args.name,
        "expected": entry.expected,
        "source": entry.source,
        "subspace": entry.subspace.to_json(),
    }
    if args.name.startswith("Kr"):
        r = entry.subspace.d - 4
        out["measure"] = kr_measure(r).to_json()
    _emit(out, args.json_out)
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="nullag",
        description="Certify triviality of, or construct, commuting measures on matrix subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="decide a subspace: certificate, measure, or inconclusive")
    pa.add_argument("subspace", help="subspace JSON path ('-' for stdin)")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--budget", type=int, default=256)
    pa.add_argument("--json-out", default=None)
    pa.set_defaults(func=cmd_analyze)

    pk = sub.add_parser("k1", help="five-atom construction on the conservation-law manifold")
    pk.add_argument("--flux", default="linear", help='"linear", "quadratic:c", "cubic:c", or an expression in v')
    pk.add_argument("--alpha1", type=float, default=0.0)
    pk.add_argument("--alpha2", type=float, default=0.0)
    pk.add_argument("--s0", type=float, default=0.1)
    pk.add_argument("--t0", type=float, default=0.1)
    pk.add_argument("--eps", default="auto", help='mass off the base atom; "auto" = eps0/2')
    pk.add_argument("--json-out", default=None)
    pk.set_defaults(func=cmd_k1)

    pv = sub.add_parser("verify", help="re-verify an emitted artifact")
    pv.add_argument("artifact", help="measure/certificate/report JSON path ('-' for stdin)")
    pv.add_argument("--json-out", default=None)
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("grassmann-scan", help="genericity scan over random chart points")
    pg.add_argument("k", type=int)
    pg.add_argument("m", type=int)
    pg.add_argument("n", type=int)
    pg.add_argument("--samples", type=int, default=200)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--json-out", default=None)
    pg.set_defaults(func=cmd_grassmann_scan)

    pf = sub.add_parser("fixtures", help="list or dump named fixtures")
    pf.add_argument("action", choices=["list", "dump"])
    pf.add_argument("name", nargs="?", default=None)
    pf.add_argument("--json-out", default=None)
    pf.set_defaults(func=cmd_fixtures)
    return parser


# built once per process: parse_args makes a fresh namespace on every call
# and the parser keeps no state between calls
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if args.command == "fixtures" and args.action == "dump" and not args.name:
        _PARSER.error("fixtures dump needs a name")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
