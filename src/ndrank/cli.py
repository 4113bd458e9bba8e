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
from dataclasses import asdict, fields
from datetime import datetime, timezone
from math import prod
from pathlib import Path

import numpy as np

from . import __version__, datasets
from .cone import (
    finite_rank_hrep,
    finite_rank_vrep,
    is_monotone,
    membership_finite_rank,
    sample_finite_rank_probability,
)
from .errors import NDRankError, UnsupportedLossRank
from .factor import INITS, FitConfig, hals
from .poset import _ordered_connected_upset_masks, _unpack
from .poset import chain, collider_to_top, count_connected_upsets, product, read_poset, trivial
from .rank import rank1_exponential, rank1_multinomial, rank1_poisson, rank_bounds
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
    # each certificate is printed before the next is computed, which may refuse
    for name, check in (("monotonicity", is_monotone), ("finite ND rank", membership_finite_rank)):
        cert = check(T, posets, args.tol)
        print(f"{name} [{cert.method}]: {'member' if cert.member else 'NON-MEMBER'}")
        for v in cert.violated:
            print(f"  violated: {v.label}   (value {v.value:.6g})")
    return 0 if cert.member else 1


def cmd_rays(args) -> int:
    posets = [_load_poset(tok) for tok in args.posets]
    if not (args.finite_rank or args.product or len(posets) == 1):
        raise NDRankError("several posets: pass --product or --finite-rank")
    shape = tuple(P.p for P in posets)
    if args.finite_rank:
        if args.count_only:  # one generator per tuple of per-mode rays
            print(prod(count_connected_upsets(P) for P in posets))
            return 0
        gens = np.array(finite_rank_vrep(posets)).reshape(-1, prod(shape))
        print(f"{len(gens)} finite-rank generators")
    else:
        P = product(posets) if len(posets) > 1 else posets[0]
        if args.count_only:  # one generator per connected upset
            print(count_connected_upsets(P))
            return 0
        # order_cone_vrep's rows, kept as uint8: its float copy would be 8x the listing
        gens = _unpack(_ordered_connected_upset_masks(P), P.p)
        print(f"{len(gens)} order-cone generators")
    _print_generators(gens, shape)
    return 0


def _print_generators(gens, shape) -> None:
    """Print each 0/1 row of ``gens`` reshaped to ``shape``, as ``np.array2string``
    prints it.  Every entry is one character wide, so one rendering of zeros, its
    lines indented, is every generator's template: its 0s take the printed digits."""
    template = "  " + np.array2string(np.zeros(shape, int), separator=" ").replace("\n", "\n  ")
    template = np.frombuffer(template.encode(), np.uint8)
    slots = np.flatnonzero(template == ord("0"))
    digits = gens.astype(np.uint8, copy=False).reshape((len(gens),) + shape)
    opts = np.get_printoptions()
    if prod(shape) > opts["threshold"]:  # summarized: the ends of each long axis
        edge = opts["edgeitems"]
        for axis, n in enumerate(shape, start=1):
            if n > 2 * edge:
                digits = digits.take(np.r_[:edge, n - edge:n], axis=axis)
    digits = digits.reshape(len(gens), slots.size)
    for lo in range(0, len(digits), 4096):  # a block at a time bounds the memory
        chunk = digits[lo:lo + 4096]
        block = np.tile(template, (len(chunk), 1))
        block[:, slots] += chunk
        sys.stdout.write("".join(f"generator {lo + i + 1}:\n{row.tobytes().decode()}\n"
                                 for i, row in enumerate(block)))


def cmd_hrep(args) -> int:
    posets = [_load_poset(tok) for tok in args.posets]
    sys.stdout.write(finite_rank_hrep(posets).to_text())
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


# the fits other than the Gaussian, each of rank one only
_RANK1_FITS = {"multinomial": rank1_multinomial, "poisson": rank1_poisson, "exponential": rank1_exponential}


def _factor_tables(prefix: str, fact, posets) -> dict:
    """``{PREFIX_modeJ.csv: text}``: row e of a mode's CSV holds element e's
    weight in each term, column e of the mode's table."""
    header = "element," + ",".join(f"term{i + 1}" for i in range(fact.rank)) + "\n"
    tables = {}
    for j, (F, P) in enumerate(zip(fact.factors, posets)):
        rows = (f"{label}," + ",".join(f"{x:.12g}" for x in col) + "\n" for label, col in zip(P.labels, F.T))
        tables[f"{prefix}_mode{j + 1}.csv"] = header + "".join(rows)
    return tables


def cmd_factorize(args) -> int:
    t0 = time.time()
    # every loss checks its settings, and writes one factor table per poset
    cfg = FitConfig(**{f.name: getattr(args, f.name) for f in fields(FitConfig)})
    T, posets = check_tensor(*_load_problem(args.tensor, args.posets))
    if args.loss != "gaussian" and cfg.rank != 1:
        raise UnsupportedLossRank(f"loss {args.loss!r} supports only rank 1 (got rank {cfg.rank})")
    trace, fit = [], {}
    if args.loss == "gaussian":
        fact, report = hals(T, posets, cfg)
        fit = asdict(report)
        trace = fit.pop("objective_trace")  # the _trace.csv, not the manifest
    else:
        fact = _RANK1_FITS[args.loss](T, posets)
    recon = fact.reconstruct()
    if args.loss == "multinomial":
        recon *= T.sum()  # the fit is a distribution; compare counts with N p
    rss = float(np.sum((T - recon) ** 2))
    tss = float(np.sum(T ** 2))
    print(f"RSS: {rss:.6g}")
    print(f"TSS: {tss:.6g}")
    print(f"relative residual: {np.sqrt(rss / tss) if tss > 0 else 0.0:.6g}")
    if args.out:
        trace_rows = "".join(f"{i + 1},{val:.12g}\n" for i, val in enumerate(trace))
        # every file the run writes; the manifest, written last, lists them
        outputs = {f"{args.out}.json": fact.to_json(), **_factor_tables(args.out, fact, posets),
                   f"{args.out}_trace.csv": "sweep,rss\n" + trace_rows}
        for path, text in outputs.items():
            Path(path).write_text(text, encoding="utf-8")
        import scipy  # for its version: importing ndrank does not run scipy/__init__.py
        manifest = {
            "command": "factorize",
            "tensor": args.tensor,
            "posets": list(args.posets),
            "config": {**asdict(cfg), "loss": args.loss},
            "version": __version__,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "wall_time_s": round(time.time() - t0, 6),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": list(outputs),
            # a Gaussian fit's FitReport, every field under its own name
            **fit,
        }
        Path(f"{args.out}_manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n",
                                                      encoding="utf-8")
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
    cone_flag = p.add_mutually_exclusive_group()
    cone_flag.add_argument("--product", action="store_true", help="rays of the product order cone")
    cone_flag.add_argument("--finite-rank", action="store_true",
                           help="rays of the finite-ND-rank cone")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_rays)

    p = sub.add_parser("hrep", help="halfspace description of the finite-ND-rank cone")
    p.add_argument("posets", nargs="+")
    p.set_defaults(fn=cmd_hrep)

    p = sub.add_parser("factorize", help="fit a low ND rank approximation")
    p.add_argument("tensor")
    p.add_argument("posets", nargs="*")
    p.add_argument("--rank", type=int, required=True)
    for f in fields(FitConfig):  # every other setting defaults as FitConfig does
        if f.name != "rank":
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                           choices=INITS if f.name == "init" else None)
    p.add_argument("--loss", choices=["gaussian", *_RANK1_FITS], default="gaussian")
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
    except (NDRankError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
