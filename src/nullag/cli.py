"""Command-line front end.

Subcommands: analyze, k1, verify, grassmann-scan, fixtures.  Every command
prints one machine-readable JSON report to stdout (and optionally to
--json-out); timing lives in a dedicated "timings" field so reports are
byte-identical across runs with the same seed once that field is dropped.

Exit codes: 0 trivial certified (or artifact verified), 10 non-trivial
measure found, 20 inconclusive, 2 input/schema violation, 3 construction
precondition failure, 1 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import RationalMatrix, rat_to_str
from .certify import (
    LAMBDA_TOL,
    MinorCombination,
    TrivialityCertificate,
    _lift,
    genericity_block,
    grassmann_genericity,
    reduce_chain,
    verify_combination,
)
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
from .fixtures import builtin, builtin_names, kr_measure
from .measures import DiscreteMeasure, construct_nontrivial_for_subspace, is_null_lagrangian, two_atom_measure
from .subspace import Subspace, find_rank_one

EXIT_TRIVIAL = 0
EXIT_VERIFIED = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_NONTRIVIAL = 10
EXIT_INCONCLUSIVE = 20


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _emit(report, json_out=None):
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    print(text)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")


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

    # the exact chain decides first.  For d <= 2 it is complete: an
    # obstruction without a witness means the rank-one directions are
    # irrational (the note gives the discriminant), so only a pencil with
    # d >= 3 gets the numeric rank-one sweep.  An exact rank-one direction
    # gives the two-atom measure and anything else goes to the exact LP,
    # so every exit 10 carries a measure with rational atoms.
    t0 = time.perf_counter()
    chain = reduce_chain(K)
    report["timings"]["reduce_chain"] = time.perf_counter() - t0
    if isinstance(chain, TrivialityCertificate):
        report["verdicts"].append(
            {"operation": "reduce_chain", "terminal": True, "chain_length": len(chain.chain)}
        )
        report["certificate"] = chain.to_json(K)
        report["conclusion"] = "trivial: terminal certificate chain"
        _emit(report, args.json_out)
        return EXIT_TRIVIAL
    report["verdicts"].append(
        {
            "operation": "reduce_chain",
            "terminal": False,
            "stuck_cone_dim": len(chain.cone),
            "note": chain.note,
        }
    )
    witness = chain.rank_one_witness
    if witness is None and K.d >= 3:
        t1 = time.perf_counter()
        res = find_rank_one(K, seed=args.seed)
        report["timings"]["find_rank_one"] = time.perf_counter() - t1
        witness = res.witness
        rank_entry = {
            "operation": "find_rank_one",
            "mode": res.mode,
            "found": res.found,
            "is_proof": witness is not None,
            "residual": res.residual,
            "lower_bound": None if res.found else res.residual,
            "minors_evaluated": res.minors,
            "minors_total": math.comb(K.m, 2) * math.comb(K.n, 2),
            "gauss_newton_steps": res.gauss_newton_steps,
        }
        if res.witness_float is not None:
            rank_entry["witness_float"] = [float(x) for x in res.witness_float]
        if witness is not None:
            rank_entry["witness"] = [rat_to_str(x) for x in witness]
        report["verdicts"].append(rank_entry)
    if witness is not None:
        mu = two_atom_measure(K, witness)
        nl = is_null_lagrangian(mu)
        report["verdicts"].append(
            {"operation": "is_null_lagrangian", "exact": True, "verdict": nl.verdict}
        )
        if nl.verdict:
            report["measure"] = mu.to_json()
            report["conclusion"] = "non-trivial measure from a rank-one direction"
            _emit(report, args.json_out)
            return EXIT_NONTRIVIAL

    t2 = time.perf_counter()
    lp = {}
    mu = construct_nontrivial_for_subspace(K, budget=args.budget, seed=args.seed, stats=lp)
    report["timings"]["construct_nontrivial"] = time.perf_counter() - t2
    if mu is not None:
        report["verdicts"].append(
            {"operation": "construct_nontrivial", "found": True, "atoms": len(mu.atoms), "exact": True,
             **lp}
        )
        report["measure"] = mu.to_json()
        report["conclusion"] = "non-trivial measure with barycenter zero"
        _emit(report, args.json_out)
        return EXIT_NONTRIVIAL
    report["verdicts"].append({"operation": "construct_nontrivial", "found": False, **lp})
    report["conclusion"] = "inconclusive: no certificate chain and no measure within budget"
    _emit(report, args.json_out)
    return EXIT_INCONCLUSIVE


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
        flux = FluxFunction.named(args.flux)
        eps = None if args.eps == "auto" else float(args.eps)
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
        mu_alpha = five_atom_measure(system, result)
        pushed = push_forward_to_K1(mu_alpha, flux, alpha)
    except (IterationError, ValueError, RuntimeError) as exc:
        report["error"] = str(exc)
        _emit(report, args.json_out)
        return EXIT_PRECONDITION
    report["timings"]["construction"] = time.perf_counter() - t0
    rep_alpha = is_null_lagrangian(mu_alpha, orders=2)
    rep_pushed = is_null_lagrangian(pushed, orders=2)
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

def _verify_measure_obj(obj):
    mu = DiscreteMeasure.from_json(obj)
    rep = is_null_lagrangian(mu)
    entry = {
        "operation": "is_null_lagrangian",
        "exact": rep.exact,
        "verdict": rep.verdict,
        "max_residual": None if rep.exact else rep.max_residual(),
        "checked": rep.checked,
        "skipped": rep.skipped,
    }
    if not rep.verdict:
        worst = max(rep.residuals, key=lambda k: abs(rep.residuals[k]))
        entry["witness_minor"] = {
            "rows": list(worst[0]),
            "cols": list(worst[1]),
            "residual": str(rep.residuals[worst]),
        }
    return rep.verdict, entry


def _verify_certificate_obj(obj):
    """Re-check a certificate chain: step i is verified on the restricted
    pencil of the cone that step i - 1 leaves, K itself at step 0, and
    the stored cone must span that cone."""
    K = Subspace.from_json(obj["subspace"])
    chain, terminal = TrivialityCertificate.chain_from_json(obj)
    entries = []
    d = K.d
    ok = True
    cone = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)]
    for step, (beta, stored_cone) in enumerate(chain):
        if not _same_span(cone, stored_cone, d):
            entries.append({"operation": "verify-cert", "step": step, "error": "cone mismatch"})
            ok = False
            break
        if not cone:
            entries.append({"operation": "verify-cert", "step": step,
                            "error": "chain continues past the origin"})
            ok = False
            break
        sub = K.restricted(cone) if step else K
        rep = verify_combination(sub, MinorCombination(beta))
        entry = {"operation": "verify_combination", "step": step, "verdict": rep.verdict}
        if not rep.ok:
            if rep.neg_witness is not None:
                entry["witness_point"] = [rat_to_str(x) for x in _lift(rep.neg_witness, cone)]
            entries.append(entry)
            ok = False
            break
        entries.append(entry)
        cone = [_lift(w, cone) for w in rep.kernel]
    else:
        if terminal and cone:
            entries.append({"operation": "verify-cert", "error": "chain does not terminate at the origin"})
            ok = False
        if not terminal and not cone:
            entries.append({"operation": "verify-cert", "error": "terminal flag understates the chain"})
            ok = False
    return ok, entries


def _same_span(c1, c2, d):
    if not c1 and not c2:
        return True
    if not c1 or not c2:
        return False
    m1 = RationalMatrix([list(v) for v in c1])
    m2 = RationalMatrix([list(v) for v in c2])
    both = RationalMatrix([list(v) for v in list(c1) + list(c2)])
    return m1.rank() == m2.rank() == both.rank()


def _check_scan_obj(obj):
    """Schema of a grassmann-scan report; raises ValueError when it is off."""
    inputs, samples, summary = obj.get("inputs"), obj.get("samples"), obj.get("summary")
    if not isinstance(inputs, dict) or not all(
        isinstance(inputs.get(key), int) for key in ("k", "m", "n", "samples", "seed")
    ):
        raise ValueError("bad grassmann-scan JSON: 'inputs'")
    if not isinstance(samples, list) or len(samples) != inputs["samples"] or not all(
        isinstance(s, dict) and all(key in s for key in ("seed", "lambda", "span_dim", "pd_found"))
        for s in samples
    ):
        raise ValueError("bad grassmann-scan JSON: 'samples'")
    if not isinstance(summary, dict) or not all(
        key in summary for key in ("lambda_nonzero_fraction", "pd_fraction", "target_span_dim")
    ):
        raise ValueError("bad grassmann-scan JSON: 'summary'")


def cmd_verify(args):
    try:
        obj = _load_json(args.artifact)
    except (OSError, json.JSONDecodeError) as exc:
        _emit({"command": "verify", "error": str(exc)}, args.json_out)
        return EXIT_SCHEMA
    if not isinstance(obj, dict):
        _emit({"command": "verify", "error": "artifact JSON must be an object"}, args.json_out)
        return EXIT_SCHEMA
    report = _report("verify", obj)
    targets = []
    kind = obj.get("kind")
    if kind == "measure":
        targets.append(("measure", obj))
    elif kind == "triviality-certificate":
        targets.append(("certificate", obj))
    elif kind == "grassmann-scan":
        try:
            _check_scan_obj(obj)
        except ValueError as exc:
            report["error"] = str(exc)
            _emit(report, args.json_out)
            return EXIT_SCHEMA
        report["verdicts"].append({"operation": "scan-schema", "verdict": True})
        report["conclusion"] = "report carries float probes and no exact artifact; schema accepted"
        _emit(report, args.json_out)
        return EXIT_VERIFIED
    elif "measure" in obj or "certificate" in obj or "measure_stripped" in obj:
        # a run report embedding artifacts: verify everything inside
        for key in ("measure", "measure_stripped"):
            if key in obj:
                targets.append(("measure", obj[key]))
        if "certificate" in obj:
            targets.append(("certificate", obj["certificate"]))
    elif "basis" in obj:
        try:
            Subspace.from_json(obj)
        except (ValueError, KeyError) as exc:
            report["error"] = str(exc)
            _emit(report, args.json_out)
            return EXIT_SCHEMA
        report["verdicts"].append({"operation": "subspace-schema", "verdict": True})
        report["conclusion"] = "subspace carries no re-verifiable artifact; schema accepted"
        _emit(report, args.json_out)
        return EXIT_VERIFIED
    if not targets:
        if "command" in obj and "verdicts" in obj:
            report["conclusion"] = "report carries no re-verifiable artifact; schema accepted"
            report["verdicts"].append({"operation": "report-schema", "verdict": True})
            _emit(report, args.json_out)
            return EXIT_VERIFIED
        report["error"] = "artifact carries nothing verifiable"
        _emit(report, args.json_out)
        return EXIT_SCHEMA
    all_ok = True
    try:
        for kind_i, target in targets:
            if kind_i == "measure":
                ok, entry = _verify_measure_obj(target)
                report["verdicts"].append(entry)
                all_ok = all_ok and ok
            else:
                ok, entries = _verify_certificate_obj(target)
                report["verdicts"].extend(entries)
                all_ok = all_ok and ok
    except (ValueError, KeyError) as exc:
        report["error"] = str(exc)
        _emit(report, args.json_out)
        return EXIT_SCHEMA
    report["conclusion"] = "verified" if all_ok else "verification failed"
    _emit(report, args.json_out)
    return EXIT_VERIFIED if all_ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# grassmann scan
# ---------------------------------------------------------------------------

# a drawn chart whose W0/W1 rows have |det| below this is drawn again
_DET_FLOOR = 1e-8


def _draw_charts(k, p, seeds):
    """The scan's charts at ``seeds``, as a kernel block.

    Chart i is drawn from its own ``default_rng(seeds[i])``: its p x p
    W0/W1 rows, drawn again while their |det| is below ``_DET_FLOOR``,
    then its (p - k) x k matrix A.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.empty((len(rngs), p, p))
    A = np.empty((len(rngs), p - k, k))
    for rng, chart in zip(rngs, rows):
        rng.standard_normal(out=chart)
    for i in np.flatnonzero(np.abs(np.linalg.det(rows)) < _DET_FLOOR):
        while abs(np.linalg.det(rows[i])) < _DET_FLOOR:
            rngs[i].standard_normal(out=rows[i])
    for rng, chart_A in zip(rngs, A):
        rng.standard_normal(out=chart_A)
    return rows, A


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
        block = genericity_block(k, m, n)
    except ValueError as exc:
        report["error"] = str(exc)
        _emit(report, args.json_out)
        return EXIT_PRECONDITION
    t0 = time.perf_counter()
    results = []
    for start in range(args.seed, args.seed + args.samples, block):
        seeds = range(start, min(start + block, args.seed + args.samples))
        for seed, rep in zip(seeds, grassmann_genericity(k, m, n, *_draw_charts(k, m * n, seeds))):
            results.append({
                "seed": seed,
                "lambda": rep.lambda_value,
                "span_dim": rep.span_dim,
                "pd_found": bool(rep.beta is not None and rep.min_eigenvalue is not None
                                 and rep.min_eigenvalue > 0),
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
        from .fixtures import v0_chart

        (W0, W1), A0 = v0_chart(k, m, n)
        [rep] = grassmann_genericity(k, m, n, [W0 + W1], [A0])
        report["v0_probe"] = {
            "lambda": rep.lambda_value,
            "lambda_nonzero": abs(rep.lambda_value) > LAMBDA_TOL,
            "span_dim": rep.span_dim,
            "exact_span_dim": rep.exact_span_dim,
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
        _emit({"command": "fixtures", "error": str(exc)}, args.json_out)
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
