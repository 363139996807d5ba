"""The package functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  `install` patches each function
below under its span name; `layer_metrics` turns one traced iteration
into the per-layer values named in BENCHMARK.json.  A layer that does
not run in a workload reports 0 calls and 0 seconds.
"""

from __future__ import annotations

import math
import os

from horolattice import core, fundamental, harness, lattices, measures, orbits


def _batch_size(args, kwargs, result) -> int:
    return int(args[0].shape[0])


def _centres(args, kwargs, result) -> int:
    nu = args[0]
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    # the grid of rho/2 steps plus every sample, as max_concentration scans
    return int(math.ceil(2.0 / rho)) ** nu.dim + nu.size


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(result)


# (function, span name, counter, owning class)
TRACED = (
    (orbits.orbit_pushforward, "orbits.orbit_pushforward", None, None),
    (orbits.sample_V, "orbits.sample_V", None, None),
    (orbits._bulk_decompose_2x2, "orbits.decompose", None, None),
    (orbits.decompose, "orbits.decompose", None, None),
    (orbits.localized_measure, "orbits.localized_measure", None, None),
    (fundamental.reduce_batch_2x2, "fundamental.reduce_batch_2x2", _batch_size, None),
    (fundamental._reduce_core, "fundamental.reduce_core", None, None),
    (fundamental._candidates_2d, "fundamental.candidates_2d", None, None),
    (fundamental._candidates_3d, "fundamental.candidates_3d", None, None),
    (fundamental.x_distance, "fundamental.x_distance", None, None),
    (lattices.lll_reduce, "lattices.lll_reduce", None, None),
    (lattices.successive_minima, "lattices.successive_minima", None, None),
    (lattices.enumerate_ball, "lattices.enumerate_ball", None, None),
    (lattices.shortest_vector, "lattices.shortest_vector", None, None),
    (core.IntegerMatrix.inv, "core.IntegerMatrix.inv", None, core.IntegerMatrix),
    (core.torus_act, "core.torus_act", None, None),
    (measures.fourier_spectrum, "measures.fourier_spectrum", None, None),
    (measures.fourier_coefficient, "measures.fourier_coefficient", None, None),
    (measures.max_concentration, "measures.max_concentration", _centres, None),
    (harness._write_csv, "harness.write_csv", _file_bytes, None),
)


def install(tracer) -> None:
    for fn, name, count, owner in TRACED:
        tracer.patch(fn, name, count, owner)


def layer_metrics(tracer) -> dict:
    """Per-layer values of one traced iteration (times in seconds)."""
    rows = tracer.summary()

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    fb_calls, fb_s = tracer.child_time("fundamental.reduce_core", "fundamental.reduce_batch_2x2")
    batch = tracer.counters["fundamental.reduce_batch_2x2.count"]
    return {
        "orbits.sample_V.s": row("orbits.sample_V")["s"],
        "orbits.decompose.calls": row("orbits.decompose")["calls"],
        "orbits.decompose.self_s": row("orbits.decompose")["self_s"],
        "fundamental.reduce_batch_2x2.self_s": row("fundamental.reduce_batch_2x2")["self_s"],
        "fundamental.fallback.calls": fb_calls,
        "fundamental.fallback.s": fb_s,
        # useful work over attempts on the batch path; 1 when no batch ran
        "fundamental.fast_path_ratio": 1.0 - fb_calls / batch if batch else 1.0,
        "fundamental.reduce_core.calls": row("fundamental.reduce_core")["calls"],
        "fundamental.reduce_core.s": row("fundamental.reduce_core")["s"],
        "fundamental.candidates_2d.s": row("fundamental.candidates_2d")["s"],
        "fundamental.candidates_3d.s": row("fundamental.candidates_3d")["s"],
        "lattices.lll_reduce.calls": row("lattices.lll_reduce")["calls"],
        "lattices.lll_reduce.s": row("lattices.lll_reduce")["s"],
        "lattices.successive_minima.s": row("lattices.successive_minima")["s"],
        "lattices.enumerate_ball.vectors": tracer.counters["lattices.enumerate_ball.yielded"],
        "lattices.enumerate_ball.s": row("lattices.enumerate_ball")["s"],
        "lattices.shortest_vector.s": row("lattices.shortest_vector")["s"],
        "core.IntegerMatrix.inv.calls": row("core.IntegerMatrix.inv")["calls"],
        "core.IntegerMatrix.inv.s": row("core.IntegerMatrix.inv")["s"],
        "core.torus_act.s": row("core.torus_act")["s"],
        "measures.fourier_spectrum.s": row("measures.fourier_spectrum")["s"],
        "measures.fourier_coefficient.calls": row("measures.fourier_coefficient")["calls"],
        "measures.max_concentration.s": row("measures.max_concentration")["s"],
        "measures.max_concentration.centres": tracer.counters["measures.max_concentration.count"],
        "orbits.localized_measure.s": row("orbits.localized_measure")["s"],
        "fundamental.x_distance.calls": row("fundamental.x_distance")["calls"],
        "harness.write_csv.s": row("harness.write_csv")["s"],
        "harness.write_csv.bytes": tracer.counters["harness.write_csv.count"],
    }


#: Metrics that count work; they must repeat exactly for a fixed seed.
EXACT = (
    "orbits.decompose.calls",
    "fundamental.fallback.calls",
    "fundamental.reduce_core.calls",
    "lattices.lll_reduce.calls",
    "lattices.enumerate_ball.vectors",
    "core.IntegerMatrix.inv.calls",
    "measures.fourier_coefficient.calls",
    "measures.max_concentration.centres",
    "fundamental.x_distance.calls",
    "harness.write_csv.bytes",
)
