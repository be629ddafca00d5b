"""Command-line front door.

Subcommands: validate, classify, plan, shorten, discretize, dubins,
converge, render.  Paths travel as JSON documents (degrees on the surface,
radians inside).  Exit codes: 0 success/feasible, 1 infeasible input,
2 usage error (an input or output path that cannot be opened among them),
3 internal assertion.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

from . import document as doc
from .geometry import from_angle
from .model import Configuration, Params, path_length, validate
from .planner import plan
from .render import render_path_svg, render_smooth_svg
from .rewrite import shorten
from .smooth import (
    ArcSeg,
    LineSeg,
    SmoothPath,
    convergence_experiment,
    discretize,
    dubins_solve,
)
from .structure import InfeasiblePathError, InternalInconsistencyError, structure_of

log = logging.getLogger("ddgeo")

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("DDGEO_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")


def _parse_config(text: str) -> Configuration:
    """Configuration from 'x,y,heading_degrees'."""
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected 'x,y,heading_degrees', got {text!r}")
    try:
        x, y, deg = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad configuration {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (x, y, deg))):
        raise UsageError(f"configuration {text!r} must be finite")
    return Configuration((x, y), from_angle(math.radians(deg)))


def _parse_params(args) -> Params:
    if args.params_n is None or args.ell is None:
        raise UsageError("--params-n and --ell are required here")
    return Params.from_sides(args.params_n, args.ell)


def _parse_word(text: str, start: Configuration) -> SmoothPath:
    """Smooth path from a word like 'L1.2 S3 R0.5' (sweeps in radians,
    straight lengths in plane units)."""
    segs = []
    for token in text.split():
        kind, value = token[0].upper(), token[1:]
        try:
            amount = float(value)
        except ValueError as exc:
            raise UsageError(f"bad segment token {token!r}") from exc
        if kind == "L":
            segs.append(ArcSeg(1, amount))
        elif kind == "R":
            segs.append(ArcSeg(-1, amount))
        elif kind == "S":
            segs.append(LineSeg(amount))
        else:
            raise UsageError(f"unknown segment kind in {token!r}")
    if not segs:
        raise UsageError("empty smooth-path word")
    return SmoothPath(start, tuple(segs))


def _load_path(filename: str):
    try:
        raw = doc.load(filename)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{filename}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    try:
        return doc.path_from_json(raw)
    except doc.DocumentError as exc:
        raise UsageError(f"{filename}: {exc}")


def _emit(args, path, params, structure=None, trace=None):
    if args.out:
        doc.save(doc.path_to_json(path, params, structure=structure,
                                  trace=trace), args.out)
    if getattr(args, "svg", None):
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_path_svg(path, params, structure))


def _cmd_validate(args) -> int:
    path, params = _load_path(args.input)
    violations = validate(path, params)
    if not violations:
        print("feasible")
        return EXIT_OK
    for v in violations:
        print(f"{v.kind.value} at {v.location}: excess {v.magnitude:.6g}")
    return EXIT_INFEASIBLE


def _cmd_classify(args) -> int:
    path, params = _load_path(args.input)
    try:
        st = structure_of(path, params)
    except InfeasiblePathError:
        print("infeasible path; run validate for details", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(st.type_word)
    _emit(args, path, params, structure=st)
    return EXIT_OK


def _cmd_plan(args) -> int:
    params = _parse_params(args)
    U = _parse_config(args.start)
    V = _parse_config(args.end)
    result = plan(U, V, params)
    st = structure_of(result.best, params)
    print(f"type {result.type_word} length {result.length:.12g} "
          f"vertices {len(result.best.vertices)}")
    solved = sum(1 for d in result.diagnostics if d.status == "solved")
    log.info("candidates: %d solved of %d", solved, len(result.diagnostics))
    _emit(args, result.best, params, structure=st)
    return EXIT_OK


def _cmd_shorten(args) -> int:
    path, params = _load_path(args.input)
    if validate(path, params):
        print("input path is infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    observer = None
    if args.frames:
        os.makedirs(args.frames, exist_ok=True)

        def observer(step, snapshot):
            fn = os.path.join(args.frames, f"step{step:05d}.svg")
            with open(fn, "w", encoding="utf-8") as fh:
                fh.write(render_path_svg(snapshot, params))

    result, trace = shorten(path, params, budget=args.budget,
                            observer=observer)
    trace_json = [{
        "rule": e.rule.kind.value,
        "location": [str(x) for x in e.location],
        "length_before": e.length_before,
        "length_after": e.length_after,
        "type_before": e.type_before,
        "type_after": e.type_after,
    } for e in trace.entries]
    status = "budget-exhausted" if trace.budget_exhausted else "fixed-point"
    st = None
    try:
        st = structure_of(result, params)
        word = st.type_word
    except InternalInconsistencyError:
        word = "(untyped)"
    print(f"{status} after {len(trace.entries)} moves: "
          f"length {path_length(path):.12g} -> {path_length(result):.12g}, "
          f"type {word}")
    _emit(args, result, params, structure=st, trace=trace_json)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    if args.n is None:
        raise UsageError("--n is required")
    if args.n < 4:
        raise UsageError(f"--n must be at least 4, got {args.n}")
    start = _parse_config(args.start)
    gamma = _parse_word(args.word, start)
    theta = 2.0 * math.pi / args.n
    if theta >= gamma.length:
        raise UsageError(f"curve of length {gamma.length:.6g} too short for n={args.n}")
    path = discretize(gamma, theta)
    params = Params.from_sides(args.n, 2.0 * math.sin(math.pi / args.n))
    bad = validate(path, params)
    if bad:
        print("internal: discretization failed validation", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"vertices {len(path.vertices)} length {path_length(path):.12g} "
          f"(smooth {gamma.length:.12g})")
    if args.out:
        doc.save(doc.path_to_json(path, params), args.out)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_smooth_svg(gamma, overlay=path))
    return EXIT_OK


def _cmd_dubins(args) -> int:
    U = _parse_config(args.start)
    V = _parse_config(args.end)
    gamma = dubins_solve(U, V)
    word = "".join(
        ("L" if s.orientation > 0 else "R") if isinstance(s, ArcSeg) else "S"
        for s in gamma.segments)
    print(f"word {word} length {gamma.length:.12g}")
    if args.out:
        segments = []
        for s in gamma.segments:
            if isinstance(s, ArcSeg):
                segments.append({"kind": "arc",
                                 "orientation": "left" if s.orientation > 0 else "right",
                                 "sweep": s.sweep})
            else:
                segments.append({"kind": "line", "length": s.length})
        doc.save({"version": doc.VERSION, "kind": "smooth",
                  "start": {"point": list(U.point),
                            "heading_degrees": math.degrees(
                                math.atan2(U.heading[1], U.heading[0]))},
                  "segments": segments,
                  "length": gamma.length}, args.out)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_smooth_svg(gamma))
    return EXIT_OK


def _cmd_converge(args) -> int:
    if args.input:
        path, _params = _load_path(args.input)
        U, V = path.start, path.end
    elif args.start and args.end:
        U = _parse_config(args.start)
        V = _parse_config(args.end)
    else:
        raise UsageError("converge needs an input document or --start/--end")
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x]
    except ValueError as exc:
        raise UsageError(f"bad --n list: {exc}")
    if not n_list:
        raise UsageError("--n needs at least one value")
    rows = convergence_experiment(U, V, n_list)
    header = f"{'n':>6} {'theta':>12} {'ell':>12} {'L_plan':>16} {'L_disc':>16} {'L_dubins':>16}"
    print(header)
    for r in rows:
        print(f"{r.n:>6} {r.theta:>12.6f} {r.ell:>12.6f} "
              f"{r.plan_length:>16.9f} {r.discretized_length:>16.9f} "
              f"{r.dubins_length:>16.9f}")
    if args.out:
        doc.save({"version": doc.VERSION, "kind": "convergence",
                  "rows": [{
                      "n": r.n, "theta": r.theta, "ell": r.ell,
                      "plan": r.plan_length,
                      "discretized": r.discretized_length,
                      "dubins": r.dubins_length,
                  } for r in rows]}, args.out)
    return EXIT_OK


def _cmd_render(args) -> int:
    path, params = _load_path(args.input)
    try:
        st = structure_of(path, params)
    except (InfeasiblePathError, InternalInconsistencyError):
        st = None
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(render_path_svg(path, params, st))
    print(f"wrote {args.svg}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it
    unchanged, so repeated ``run`` calls share it."""
    top = argparse.ArgumentParser(
        prog="ddgeo",
        description="Discrete bounded-curvature paths: validate, classify, "
                    "plan, shorten, discretize, and compare to smooth limits.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_params=False, out=True, svg=True):
        if needs_params:
            p.add_argument("--params-n", type=int, help="discrete circle vertex count")
            p.add_argument("--ell", type=float, help="edge length parameter")
        if out:
            p.add_argument("--out", help="write the resulting path document here")
        if svg:
            p.add_argument("--svg", help="write an SVG rendering here")

    p = sub.add_parser("validate", help="check a path document for feasibility")
    p.add_argument("input")
    common(p, out=False, svg=False)

    p = sub.add_parser("classify", help="extract arcs/bridges and the type word")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("plan", help="shortest path between two configurations")
    p.add_argument("--start", required=True, help="x,y,heading_degrees")
    p.add_argument("--end", required=True, help="x,y,heading_degrees")
    common(p, needs_params=True)

    p = sub.add_parser("shorten", help="drive a path to a rewriting fixed point")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=10_000,
                   help="maximum rule applications")
    p.add_argument("--frames", help="directory for one SVG per applied move")
    common(p)

    p = sub.add_parser("discretize", help="sample a smooth arc/line word")
    p.add_argument("--word", required=True,
                   help="segments like 'L1.2 S3 R0.5' (radians / lengths)")
    p.add_argument("--start", default="0,0,0", help="x,y,heading_degrees")
    p.add_argument("--n", type=int, required=True, help="refinement 2*pi/theta")
    common(p)

    p = sub.add_parser("dubins", help="shortest smooth unit-radius curve")
    p.add_argument("--start", required=True, help="x,y,heading_degrees")
    p.add_argument("--end", required=True, help="x,y,heading_degrees")
    common(p)

    p = sub.add_parser("converge", help="planned vs discretized vs smooth lengths")
    p.add_argument("input", nargs="?", default=None,
                   help="path document supplying the two configurations")
    p.add_argument("--start", help="x,y,heading_degrees")
    p.add_argument("--end", help="x,y,heading_degrees")
    p.add_argument("--n", dest="n_list", required=True,
                   help="comma-separated refinement list, e.g. 8,16,64")
    common(p, svg=False)

    p = sub.add_parser("render", help="SVG rendering of a path document")
    p.add_argument("input")
    p.add_argument("--svg", required=True)

    return top


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "plan": _cmd_plan,
    "shorten": _cmd_shorten,
    "discretize": _cmd_discretize,
    "dubins": _cmd_dubins,
    "converge": _cmd_converge,
    "render": _cmd_render,
}


def run(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # InternalInconsistencyError among them
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
