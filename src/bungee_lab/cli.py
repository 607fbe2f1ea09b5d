"""Command line interface.

Exit codes: 0 when the requested check found no violations (or a
preset met every expectation), 1 when violations were found or a check
was inconclusive, 2 for usage or expression errors.  Reports go to
stdout as JSON; one-line summaries go to stderr.

Regions are given as --grid "cx,cy,w,h" (sampling and root finding)
or --grid "cx,cy,w,h,nx,ny" (rendering, which needs pixel counts).

`verify RELATION` runs one sampling check; `verify` without a relation
is a usage error.  `preset NAME` runs a canned suite (`all-paper` runs
every one, in forked worker processes when there are two or more CPUs)
and `preset` alone lists them.  `render --workers` defaults to the CPU
count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys

from .expr import ParseError, check_composition, constant_value, parse
from .grid import MAX_GRID_PIXELS, GridSpec, classify_grid, mask_stats, resolve_workers
from .orbit import DEFAULT_STARTS, OrbitParams, Rect, classify_point, find_fixed_points
from .presets import PRESETS, check_preset, run_preset
from .render import DEFAULT_N_SHADE, render_ppm
from .verify import (
    DEFAULT_N_MAX,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    SamplerSpec,
    check_pointwise,
    check_sampling,
    pair,
    shared_classifications,
    verify_commute,
    verify_composition_containments,
    verify_invariance,
    verify_partition,
    verify_property_a,
    verify_translate,
)


class CliError(Exception):
    """Bad input discovered after argparse; exits with status 2."""


def _parse_complex(text: str) -> complex:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) in (1, 2) and all(map(math.isfinite, parts)):
        return complex(*parts)
    raise CliError(f"expected a finite complex number as RE or RE,IM, got {text!r}")


def _load_expr(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        marker = " " * exc.offset + "^"
        raise CliError(f"bad expression: {exc}\n  {text}\n  {marker}") from exc


def _load_constant(text: str) -> complex:
    e = _load_expr(text)
    try:
        return constant_value(e)
    except ValueError as exc:
        raise CliError(f"bad constant expression {text!r}: {exc}") from exc


def _split_grid(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) not in (4, 6):
        raise CliError(
            f"--grid wants cx,cy,w,h or cx,cy,w,h,nx,ny, got {text!r}"
        )
    try:
        nums = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad --grid value {text!r}: {exc}") from exc
    if not all(map(math.isfinite, nums)):
        raise CliError(f"--grid numbers must be finite, got {text!r}")
    return nums


def _grid_rect(text: str) -> Rect:
    nums = _split_grid(text)
    try:
        return Rect(complex(nums[0], nums[1]), nums[2], nums[3])
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _grid_spec(text: str) -> GridSpec:
    nums = _split_grid(text)
    if len(nums) != 6:
        raise CliError("rendering needs the full --grid cx,cy,w,h,nx,ny form")
    nx, ny = int(nums[4]), int(nums[5])
    if nx != nums[4] or ny != nums[5]:
        raise CliError("pixel counts nx, ny must be integers")
    try:
        return GridSpec(complex(nums[0], nums[1]), nums[2], nums[3], nx, ny)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _add_orbit_args(p: argparse.ArgumentParser) -> None:
    d = OrbitParams()
    p.add_argument("--max-iter", type=int, default=d.max_iter)
    p.add_argument("--escape-radius", type=float, default=d.escape_radius)
    p.add_argument("--bound-radius", type=float, default=d.bound_radius)
    p.add_argument("--min-osc", type=int, default=d.min_oscillations)
    p.add_argument("--tail-window", type=int, default=d.tail_window)


def _orbit_params(args) -> OrbitParams:
    try:
        return OrbitParams(
            max_iter=args.max_iter,
            escape_radius=args.escape_radius,
            bound_radius=args.bound_radius,
            min_oscillations=args.min_osc,
            tail_window=args.tail_window,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _add_sampler_args(p: argparse.ArgumentParser, grid: str = "0,0,4,4") -> None:
    p.add_argument("--grid", default=grid, metavar="CX,CY,W,H")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _sampler(args) -> SamplerSpec:
    try:
        return SamplerSpec(_grid_rect(args.grid), args.samples, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _open_out(path: str | None):
    """Open --out for writing, or nothing when it is not given.

    Commands call this after validating their arguments and before the
    work, so an unwritable path exits 2 before anything runs.
    """
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "wb")
    except OSError as exc:
        raise CliError(f"cannot write --out {path!r}: {exc.strerror}") from exc


def _emit(payload, out) -> None:
    """Print payload as JSON, and write it to the open --out file if any."""
    text = json.dumps(payload, indent=2)
    print(text)
    if out is not None:
        out.write(text.encode() + b"\n")


def _note(line: str) -> None:
    print(line, file=sys.stderr)


def _reports_exit(reports) -> int:
    for r in reports:
        flag = "" if r.violations == 0 else "  <- violations"
        if r.detail.get("inconclusive"):
            flag = "  <- inconclusive"
        _note(
            f"{r.relation}: {r.violations} violations, "
            f"{r.samples_confident}/{r.samples_total} usable samples{flag}"
        )
    return 0 if all(r.passes() for r in reports) else 1


# ---------------------------------------------------------------------------
# Commands


def _cmd_classify(args) -> int:
    f = _load_expr(args.f)
    z0 = _parse_complex(args.z0)
    params = _orbit_params(args)
    with _open_out(args.out) as out:
        result = classify_point(f, z0, params)
        payload = {
            "function": str(f),
            "z0": pair(z0),
            "verdict": result.verdict.label,
            "confidence": result.confidence,
            "termination": {
                "kind": result.termination.kind,
                "step": result.termination.step,
            },
            "oscillations": result.oscillation_count,
            "params": params.to_dict(),
            "log10_magnitudes_head": list(result.head),
            "log10_magnitudes_tail": list(result.tail),
        }
        _emit(payload, out)
    _note(
        f"{result.verdict.label} ({result.confidence}), "
        f"terminated {result.termination.kind} at step {result.termination.step}, "
        f"{result.oscillation_count} oscillations"
    )
    return 0


def _cmd_render(args) -> int:
    f = _load_expr(args.f)
    params = _orbit_params(args)
    spec = _grid_spec(args.grid)
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.n_shade < 1:
        raise CliError("--n-shade must be at least 1")
    with _open_out(args.out) as fh:
        grid = classify_grid(f, spec, params, workers=workers)
        data = render_ppm(grid, n_shade=args.n_shade)
        fh.write(data)
    stats = mask_stats(grid)
    payload = {
        "function": str(f),
        "grid": spec.to_dict(),
        "params": params.to_dict(),
        "stats": stats,
        "out": args.out,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    _emit(payload, None)
    _note(f"wrote {args.out} ({spec.nx}x{spec.ny}), counts {stats['counts']}")
    return 0


def _cmd_fixed_points(args) -> int:
    f = _load_expr(args.f)
    region = _grid_rect(args.grid)
    # starts**2 Newton seeds: the same limit as a grid's pixel count
    if args.starts < 1 or args.starts**2 > MAX_GRID_PIXELS:
        raise CliError(
            f"--starts must be between 1 and {math.isqrt(MAX_GRID_PIXELS)}, "
            f"got {args.starts}"
        )
    with _open_out(args.out) as out:
        reports = find_fixed_points(f, region, starts=args.starts)
        payload = [r.to_dict() for r in reports]
        _emit({"function": str(f), "fixed_points": payload}, out)
    _note(f"{len(reports)} fixed point(s) in region")
    return 0


def _checked(check, *args) -> None:
    """Run an option validator; a ValueError exits 2."""
    try:
        check(*args)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_verify(args) -> int:
    params = _orbit_params(args)
    sampler = _sampler(args)
    f = _load_expr(args.f)
    g = _load_expr(args.g) if "g" in vars(args) else None
    if args.relation == "containment":
        _checked(check_composition, f, g)
    elif args.relation == "commute":
        _checked(check_pointwise, args.tol)
    elif args.relation == "translate":
        c = _load_constant(args.C)
        _checked(check_pointwise, args.tol, args.n_max)

    with _open_out(args.out) as out, shared_classifications():
        if args.relation == "containment":
            reports = verify_composition_containments(
                f,
                g,
                sampler,
                params,
                strict=args.strict,
                bu_mode="all" if args.bu_mode == "intersection" else "any",
            )
        elif args.relation == "invariance":
            kinds = (
                ("escaping", "bounded") if args.kind == "both" else (args.kind,)
            )
            reports = [
                verify_invariance(f, g, kind, sampler, params, strict=args.strict)
                for kind in kinds
            ]
        elif args.relation == "commute":
            reports = [verify_commute(f, g, sampler, params, tol=args.tol)]
        elif args.relation == "translate":
            reports = [
                verify_translate(f, c, sampler, params, n_max=args.n_max, tol=args.tol)
            ]
        elif args.relation == "property-a":
            reports = [verify_property_a(f, g, sampler, params)]
        elif args.relation == "partition":
            reports = [verify_partition(f, sampler, params)]
        else:  # pragma: no cover - argparse restricts choices
            raise CliError(f"unknown relation {args.relation!r}")

        payload = [r.to_dict() for r in reports]
        _emit(payload[0] if len(payload) == 1 else payload, out)
    return _reports_exit(reports)


def _cmd_preset(args) -> int:
    if args.name is None:
        listing = [
            {"name": p.name, "description": p.description} for p in PRESETS.values()
        ]
        listing.append(
            {"name": "all-paper", "description": "run every preset, in forked workers on 2+ CPUs"}
        )
        _emit(listing, None)
        return 0
    _checked(check_sampling, args.samples, args.seed)
    try:
        check_preset(args.name)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from None
    with _open_out(args.out) as out:
        results = run_preset(args.name, samples=args.samples, seed=args.seed)
        _emit([c.to_dict() for c in results], out)
    for c in results:
        _note(f"{'PASS' if c.passed else 'FAIL'}  {c.name}  ({c.expectation})")
    return 0 if all(c.passed for c in results) else 1


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state."""
    p = argparse.ArgumentParser(
        prog="bungee-lab",
        description=(
            "Classify orbits of complex maps as escaping, bounded, or "
            "bungee; render verdict grids; check set relations by sampling."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="classify one seed point")
    pc.add_argument("--f", required=True, metavar="EXPR")
    pc.add_argument("--z0", required=True, metavar="RE,IM")
    pc.add_argument("--out", default=None)
    _add_orbit_args(pc)

    pr = sub.add_parser("render", help="render a verdict grid to PPM")
    pr.add_argument("--f", required=True, metavar="EXPR")
    pr.add_argument("--grid", default="0,0,4,4,512,512", metavar="CX,CY,W,H,NX,NY")
    pr.add_argument("--out", required=True)
    pr.add_argument("--n-shade", type=int, default=DEFAULT_N_SHADE)
    pr.add_argument("--workers", type=int, default=None)
    _add_orbit_args(pr)

    pf = sub.add_parser("fixed-points", help="locate fixed points by Newton search")
    pf.add_argument("--f", required=True, metavar="EXPR")
    pf.add_argument("--grid", default="0,0,4,4", metavar="CX,CY,W,H")
    pf.add_argument("--starts", type=int, default=DEFAULT_STARTS)
    pf.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="sampling checks of set relations")
    vsub = pv.add_subparsers(dest="relation", required=True)

    def common(sp, g_required=True, grid="0,0,4,4"):
        sp.add_argument("--f", required=True, metavar="EXPR")
        if g_required:
            sp.add_argument("--g", required=True, metavar="EXPR")
        _add_sampler_args(sp, grid)
        _add_orbit_args(sp)
        sp.add_argument("--out", default=None)

    sp = vsub.add_parser("containment", help="composition containments for f, g")
    common(sp)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--bu-mode", choices=("union", "intersection"), default="union")

    sp = vsub.add_parser("invariance", help="forward invariance of S(f) under g")
    common(sp)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument(
        "--kind", choices=("escaping", "bounded", "bungee", "both"), default="both"
    )

    sp = vsub.add_parser("commute", help="compare f(g(z)) with g(f(z))")
    common(sp, grid="0,0,2,2")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)

    sp = vsub.add_parser("translate", help="iterates of f + C against f")
    common(sp, g_required=False)
    sp.add_argument("--C", required=True, metavar="EXPR")
    sp.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)

    sp = vsub.add_parser(
        "property-a", help="f sends confidently escaping g-orbits far out"
    )
    common(sp)

    sp = vsub.add_parser("partition", help="verdict breakdown for one map")
    common(sp, g_required=False)

    pp = sub.add_parser("preset", help="run a canned verification suite")
    pp.add_argument("name", nargs="?", default=None, help="omit to list the presets")
    pp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    pp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pp.add_argument("--out", default=None)

    return p


_HANDLERS = {
    "classify": _cmd_classify,
    "render": _cmd_render,
    "fixed-points": _cmd_fixed_points,
    "verify": _cmd_verify,
    "preset": _cmd_preset,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
