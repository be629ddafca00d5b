"""A randomized check on ``plan``: the best path a perturb-and-polish search
finds, seeded from discretized smooth Dubins curves and driven by the
rewriter.  The tests compare ``plan`` against it; it is never the answer.
"""

from __future__ import annotations

import math

import numpy as np

from ddgeo.geometry import dist, scale
from ddgeo.model import Configuration, DiscretePath, Params, path_length, validate
from ddgeo.planner import PlannerError
from ddgeo.rewrite import shorten
from ddgeo.smooth import discretize, dubins_solve


def oracle_search(U: Configuration, V: Configuration, params: Params,
                  budget: int = 4000, rng=None) -> DiscretePath:
    """Best path found by perturb-and-polish search; an independent check on
    the planner, never the primary answer."""
    rng = np.random.default_rng(rng)
    seeds: list[DiscretePath] = []
    r = params.circumradius
    for factor in (1.0, 1.12, 1.3):
        try:
            Us = Configuration(scale(U.point, 1.0 / (r * factor)), U.heading)
            Vs = Configuration(scale(V.point, 1.0 / (r * factor)), V.heading)
            gamma = dubins_solve(Us, Vs)
            if gamma.length <= params.theta:
                continue
            disc = discretize(gamma, params.theta)
            verts = [scale(p, r * factor) for p in disc.vertices]
            verts[0], verts[-1] = U.point, V.point
            dedup = [verts[0]]
            for p in verts[1:]:
                if dist(dedup[-1], p) > 10.0 * params.tol_dedup:
                    dedup.append(p)
            dedup[-1] = V.point
            path = DiscretePath(U, V, tuple(dedup))
            if not validate(path, params):
                seeds.append(path)
        except (ValueError, RuntimeError):
            continue
    if not seeds:
        straight = DiscretePath(U, V, (U.point, V.point))
        if not validate(straight, params):
            seeds.append(straight)
    if not seeds:
        raise PlannerError("oracle could not build any feasible seed")

    per = max(200, budget // (2 * len(seeds) + 6))
    best = None
    best_len = math.inf
    for s in seeds:
        polished, _ = shorten(s, params, budget=per)
        ln = path_length(polished)
        if ln < best_len:
            best, best_len = polished, ln

    for _ in range(6):
        sigma = params.ell * rng.uniform(0.01, 0.08)
        verts = list(best.vertices)
        for i in range(1, len(verts) - 1):
            verts[i] = (verts[i][0] + rng.normal(0.0, sigma),
                        verts[i][1] + rng.normal(0.0, sigma))
        try:
            jittered = best.with_vertices(verts)
        except ValueError:
            continue
        if validate(jittered, params):
            continue
        polished, _ = shorten(jittered, params, budget=per)
        ln = path_length(polished)
        if ln < best_len:
            best, best_len = polished, ln
    # the per-seed budget can stop short of a fixed point
    return shorten(best, params)[0]
