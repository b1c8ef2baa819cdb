"""Boundary branches that no other test reaches: refusals at an invalid
argument and the degenerate inputs with a defined answer, one row each.

Two statements stay unreached on purpose: ``cli``'s ``__main__`` guard,
which runs only when the module is executed as a script, and the final
``raise`` of ``model._profile``, which no valid ``ModelConfig`` reaches."""

import numpy as np
import pytest

from bosonlab import duhamel
from bosonlab import fockstate as fs
from bosonlab import meanfield as mf
from bosonlab import projections as pj
from bosonlab import snapshots
from bosonlab import tensorstate as ts
from bosonlab.errors import ConfigError, RangeError
from bosonlab.experiments import default_phi0, delta_exponent, orthogonal_mode
from bosonlab.model import build_model, validate_config

MODEL = build_model(validate_config({
    "dimension": 1, "sites_per_dim": 3, "torus_length": 3.0, "particles": 3,
    "interaction_amplitude": 0.5, "interaction_radius": 1.5, "dt": 1e-2, "t_final": 0.02,
}))
PHI = default_phi0(MODEL)
PSI = ts.product_state(PHI, 3, MODEL.cell)
WAVE = np.exp(2j * np.pi * MODEL.coords[:, 0] / MODEL.config.torus_length)
WAVE = WAVE / mf.one_body_norm(WAVE, MODEL.cell)


def is_zero_state(out):
    return out.particles == PSI.particles and out.amps.shape == PSI.amps.shape and out.norm() == 0.0


# (call, what it raises with its message, or a check of what it returns)
CASES = {
    "tuple-set-of-negative-length": (lambda: duhamel.tuple_set(-1, 0), (ValueError, "nonnegative")),
    "hierarchy-of-order-0": (
        lambda: duhamel.hierarchy_evolve(PSI, 0, 0.02, mf.hartree_evolve(PHI, 0.0, 0.02, MODEL)),
        (ValueError, "order must be >= 1")),
    "orthogonal-mode-of-the-plane-wave": (lambda: orthogonal_mode(MODEL, WAVE), (ConfigError, "degenerated")),
    "delta-exponent-in-dimension-0": (lambda: delta_exponent(0.0, 1.0, 0), (RangeError, "dimension must be >= 1")),
    "basis-without-sites": (lambda: fs.enumerate_basis(0, 2), (ConfigError, "invalid basis request M=0, N=2")),
    "hartree-backwards-in-time": (lambda: mf.hartree_evolve(PHI, 0.0, -0.01, MODEL), (ValueError, "t1 must be >= t0")),
    "subset-p-k-below-0": (lambda: pj.apply_Pk_subset(-1, PHI, PSI), is_zero_state),
    "subset-p-k-above-n": (lambda: pj.apply_Pk_subset(4, PHI, PSI), is_zero_state),
    "gamma-max-skips-a-zero-moment": (lambda: pj.SpectralWeights(np.zeros(4)).gamma_max(2), lambda g: g == 1.0),
    "representation-of-a-non-state": (lambda: snapshots.representation(object()),
                                      (ConfigError, "cannot snapshot object of type object")),
    "projector-chain-with-an-unknown-tag": (lambda: ts.apply_projector_chain(["p", "x", "id"], PHI, PSI),
                                            (ValueError, "got 'x'")),
    "transposition-residual-of-one-particle": (
        lambda: ts.transposition_residual(ts.product_state(PHI, 1, MODEL.cell)), lambda r: r == 0.0),
    "transposition-residual-of-the-zero-state": (lambda: ts.transposition_residual(0.0 * PSI), lambda r: r == 0.0),
    "product-state-of-no-particles": (
        lambda: ts.product_state(PHI, 0, MODEL.cell),
        lambda out: out.particles == 0 and out.amps.shape == () and out.amps == 1.0 and out.norm() == 1.0),
}


@pytest.mark.parametrize("name", CASES)
def test_boundary_case(name):
    call, expect = CASES[name]
    if callable(expect):
        assert expect(call())
    else:
        error, message = expect
        with pytest.raises(error, match=message):
            call()
