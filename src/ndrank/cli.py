"""Command line front end.

Subcommands: check | rays | hrep | factorize | bounds | sample.
Poset arguments are file paths or the shorthands ``chain:N``, ``trivial:N``,
``collider:N``; tensors are JSON/CSV paths or ``fixture:NAME`` (which also
supplies the fixture's posets when none are given).  Exit codes: 0 success
or positive verdict, 1 negative verdict, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__, datasets
from .cone import (
    _finite_rank_facets,
    finite_rank_hrep,
    finite_rank_vrep,
    is_monotone,
    membership_finite_rank,
    order_cone_vrep,
    sample_finite_rank_probability,
)
from .errors import HypothesisViolated, NDRankError, UnsupportedLossRank
from .factor import (
    FitConfig,
    hals,
    rank1_exponential,
    rank1_multinomial,
    rank1_poisson,
    rank_bounds,
)
from .poset import product, chain, collider_to_top, read_poset, trivial
from .tensor import check_tensor, read_tensor


def _load_poset(token: str):
    for prefix, make in (("chain:", chain), ("trivial:", trivial), ("collider:", collider_to_top)):
        if token.startswith(prefix):
            return make(int(token[len(prefix):]))
    return read_poset(token)


def _load_problem(tensor_arg: str, poset_args):
    if tensor_arg.startswith("fixture:"):
        T, default_posets = datasets.fixture(tensor_arg[len("fixture:"):])
    else:
        T = read_tensor(tensor_arg)
        default_posets = None
    if poset_args:
        posets = [_load_poset(tok) for tok in poset_args]
    elif default_posets is not None:
        posets = default_posets
    elif T.ndim == 0:  # an order-0 tensor has no modes to order
        posets = []
    else:
        raise NDRankError("no posets given and the tensor is not a fixture")
    return T, posets


def cmd_check(args) -> int:
    T, posets = _load_problem(args.tensor, args.posets)
    mono = is_monotone(T, posets, args.tol)
    print(f"monotonicity [{mono.method}]: {'member' if mono.member else 'NON-MEMBER'}")
    for v in mono.violated:
        print(f"  violated: {v.label}   (value {v.value:.6g})")
    cert = membership_finite_rank(T, posets, args.tol)
    print(f"finite ND rank [{cert.method}]: {'member' if cert.member else 'NON-MEMBER'}")
    for v in cert.violated:
        print(f"  violated: {v.label}   (value {v.value:.6g})")
    return 0 if cert.member else 1


def cmd_rays(args) -> int:
    posets = [_load_poset(tok) for tok in args.posets]
    if args.finite_rank:
        gens = finite_rank_vrep(posets)
        arrays = gens
        header = f"{len(gens)} finite-rank generators"
    elif args.product or len(posets) == 1:
        P = product(posets) if len(posets) > 1 else posets[0]
        vrep = order_cone_vrep(P)
        shape = tuple(Q.p for Q in posets)
        arrays = [g.reshape(shape) for g in vrep.generators]
        header = f"{vrep.count} order-cone generators"
    else:
        raise NDRankError("several posets: pass --product or --finite-rank")
    if args.count_only:
        print(len(arrays))
        return 0
    print(header)
    for i, g in enumerate(arrays):
        print(f"generator {i + 1}:")
        body = np.array2string(np.asarray(g, dtype=int), separator=" ")
        print("  " + body.replace("\n", "\n  "))
    return 0


def cmd_hrep(args) -> int:
    posets = [_load_poset(tok) for tok in args.posets]
    try:
        hrep = finite_rank_hrep(posets)
    except HypothesisViolated:
        hrep = _finite_rank_facets(tuple(posets))
    sys.stdout.write(hrep.to_text())
    return 0


def cmd_bounds(args) -> int:
    posets = [_load_poset(tok) for tok in args.posets]
    b = rank_bounds(posets)
    print("extremal ray counts:", " ".join(str(q) for q in b.extremal_ray_counts))
    print("max ND rank upper bound:", b.upper)
    print("max ND rank:", b.exact_max if b.exact_max is not None else "unknown")
    if b.typical_range is not None:
        print(f"typical ND ranks: {b.typical_range[0]}..{b.typical_range[1]}")
    elif b.typical_min is not None:
        print(f"typical ND ranks: {b.typical_min}..? (maximum unknown)")
    return 0


def cmd_sample(args) -> int:
    est = sample_finite_rank_probability(args.m, args.n, args.seed)
    print(f"P(finite ND rank | uniform on order polytope, m={args.m}) = {est}")
    return 0


def _write_factor_tables(prefix: str, fact, posets):
    paths = []
    for j, P in enumerate(posets):
        path = f"{prefix}_mode{j + 1}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("element," + ",".join(f"term{i + 1}" for i in range(fact.rank)) + "\n")
            for row in range(P.p):
                cells = ",".join(f"{fact.factors[j][i][row]:.12g}" for i in range(fact.rank))
                fh.write(f"{P.labels[row]},{cells}\n")
        paths.append(path)
    return paths


def cmd_factorize(args) -> int:
    t0 = time.time()
    # every loss, the marginal ones too, writes one factor table per poset
    T, posets = check_tensor(*_load_problem(args.tensor, args.posets))
    if args.loss != "gaussian" and args.rank != 1:
        raise UnsupportedLossRank(f"loss {args.loss!r} supports only rank 1 (got rank {args.rank})")
    trace, report = [], None
    if args.loss == "gaussian":
        cfg = FitConfig(rank=args.rank, max_sweeps=args.max_sweeps, rel_tol=args.rel_tol,
                        restarts=args.restarts, seed=args.seed, init=args.init)
        fact, report = hals(T, posets, cfg)
        trace = report.objective_trace
        fact.diagnostics["objective_trace"] = trace
        fact.diagnostics["best_restart"] = report.best_restart
    elif args.loss == "multinomial":
        fact = rank1_multinomial(T)
    elif args.loss == "poisson":
        fact = rank1_poisson(T)
    else:
        fact = rank1_exponential(T, posets)
    recon = fact.reconstruct()
    if args.loss == "multinomial":
        recon *= T.sum()  # the fit is a distribution; compare counts with N p
    rss = float(np.sum((T - recon) ** 2))
    tss = float(np.sum(T ** 2))
    print(f"RSS: {rss:.6g}")
    print(f"TSS: {tss:.6g}")
    print(f"relative residual: {np.sqrt(rss / tss) if tss > 0 else 0.0:.6g}")
    if args.out:
        if args.posets:
            fact.diagnostics["poset_refs"] = list(args.posets)
        elif args.tensor.startswith("fixture:"):
            fact.diagnostics["poset_refs"] = [args.tensor]
        with open(f"{args.out}.json", "w", encoding="utf-8") as fh:
            fh.write(fact.to_json())
        table_paths = _write_factor_tables(args.out, fact, posets)
        trace_path = f"{args.out}_trace.csv"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("sweep,rss\n")
            for i, val in enumerate(trace):
                fh.write(f"{i + 1},{val:.12g}\n")
        manifest = {
            "command": "factorize",
            "tensor": args.tensor,
            "posets": list(args.posets),
            "config": {"rank": args.rank, "loss": args.loss, "restarts": args.restarts,
                       "max_sweeps": args.max_sweeps, "rel_tol": args.rel_tol, "init": args.init},
            "seed": args.seed,
            "version": __version__,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "wall_time_s": round(time.time() - t0, 6),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": [f"{args.out}.json", *table_paths, trace_path],
        }
        if report is not None:
            # sweep projection rows by path: clamp, chain, in_cone, warm, solved
            manifest["projections"] = report.projection_rows
            manifest["stopped"] = report.stop_reason
            manifest["extrapolation"] = report.extrapolation
            manifest["timings"] = report.timings
            manifest["first_rise"] = report.first_rise
        with open(f"{args.out}_manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ndrank",
                                 description="Nondecreasing-rank toolchain for matrices and tensors over product posets")
    ap.add_argument("--version", action="version", version=f"ndrank {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership certificates for a tensor")
    p.add_argument("tensor")
    p.add_argument("posets", nargs="*")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("rays", help="extremal ray listings")
    p.add_argument("posets", nargs="+")
    p.add_argument("--product", action="store_true", help="rays of the product order cone")
    p.add_argument("--finite-rank", action="store_true", help="rays of the finite-ND-rank cone")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_rays)

    p = sub.add_parser("hrep", help="halfspace description of the finite-ND-rank cone")
    p.add_argument("posets", nargs="+")
    p.set_defaults(fn=cmd_hrep)

    p = sub.add_parser("factorize", help="fit a low ND rank approximation")
    p.add_argument("tensor")
    p.add_argument("posets", nargs="*")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-sweeps", type=int, default=500)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--init", choices=["als-project", "random-cone"], default="als-project")
    p.add_argument("--loss", choices=["gaussian", "multinomial", "poisson", "exponential"],
                   default="gaussian")
    p.add_argument("--out", help="output prefix for factorization JSON, factor CSVs, trace")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("bounds", help="rank bounds for the given posets")
    p.add_argument("posets", nargs="+")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("sample", help="order-polytope membership probability")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sample)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NDRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
