"""The benchmark tracer's seams still name real functions with the arguments
its measures read.

``perfbench/tracing.py`` wraps priorshift functions by module and name, and
some of its measures read an argument by position or keyword.  A renamed
function or argument would otherwise show up only as a missing layer metric
in a traced benchmark run.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Seam -> the (position, name) of each argument its measure reads.
MEASURED_ARGS = {
    "denoiser.forward": [(1, "x_t")],
    "prior.exact_eps_batch": [(3, "x")],
    "denoiser.loss_total": [(0, "theta"), (1, "phi"), (2, "x0")],
    "denoiser.save_model": [(0, "path")],
    "denoiser.load_model": [(0, "path")],
    "latent.load_dataset": [(0, "path")],
    "latent.save_dataset": [(1, "path")],
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SEAMS = _load_tracing().SEAMS


def _target(seam):
    return getattr(importlib.import_module(f"priorshift.{seam.module}"), seam.func, None)


@pytest.mark.parametrize("seam", SEAMS, ids=lambda s: s.name)
def test_seam_names_a_callable(seam):
    assert callable(_target(seam))


def test_every_measured_seam_is_listed():
    assert {s.name for s in SEAMS if s.measure is not None} == set(MEASURED_ARGS)


@pytest.mark.parametrize("name", sorted(MEASURED_ARGS))
def test_measured_arguments_keep_position_and_name(name):
    seam = next(s for s in SEAMS if s.name == name)
    params = list(inspect.signature(_target(seam)).parameters)
    for index, arg in MEASURED_ARGS[name]:
        assert params[index] == arg, f"{name} argument {index} is {params[index]!r}"
