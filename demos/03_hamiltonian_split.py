"""The exact split of the generator into quadratic, cubic, quartic parts.

The many-body Hamiltonian decomposes exactly, at every condensate time
stamp, as H = Htilde + C + Q, where the pieces carry zero-to-two, three, and
four complement projectors respectively.  On the lattice this is an identity
of finite matrices, so the residual below is pure roundoff; it is read from
the pieces at the condensate and its time alone (``pieces_at``), as are the
remainders, and a zero pair table takes the same path.  The remainder
norms also show the size ordering that drives the correction hierarchy: the
cubic term dominates the quartic one on near-condensed states.
"""

import dataclasses

import numpy as np

from bosonlab import tensorstate as ts
from bosonlab.experiments import build_mixed, build_product, default_phi0
from bosonlab.hamiltonians import apply_C, apply_Q, decomposition_residual, pieces_at
from bosonlab.model import build_model, validate_config

config = validate_config(
    {
        "dimension": 1,
        "sites_per_dim": 4,
        "torus_length": 4.0,
        "particles": 5,
        "interaction_amplitude": 0.8,
        "interaction_radius": 1.5,
        "t_final": 0.1,
        "dt": 1e-3,
    }
)
model = build_model(config)
phi0 = default_phi0(model)

print("decomposition residual ||(H - Htilde - C - Q) psi|| / ||psi||:")
rng = np.random.default_rng(1)
for trial in range(5):
    psi = ts.random_symmetric(config.site_count, config.particles, model.cell, rng)
    print(f"  random symmetric state {trial}: {decomposition_residual(phi0, 0.0, psi, model):.3e}")
free = build_model(validate_config(dataclasses.replace(config, interaction_profile="zero")))
print(f"  the last state, zero pair table: {decomposition_residual(phi0, 0.0, psi, free):.3e}")

pieces = pieces_at(phi0, 0.0, model)
print("\nremainder norms on structured states:")
for name, psi in (
    ("condensate", build_product(model, phi0, "tensor")),
    ("mixed eps=0.2", build_mixed(model, phi0, 0.2, representation="tensor")),
    ("mixed eps=0.8", build_mixed(model, phi0, 0.8, representation="tensor")),
):
    c_norm = apply_C(pieces, psi).norm()
    q_norm = apply_Q(pieces, psi).norm()
    print(f"  {name:<14} ||C psi|| = {c_norm:.6f}   ||Q psi|| = {q_norm:.6f}")
print("\nthe quartic part vanishes on the pure condensate (four q's hit phi)")
