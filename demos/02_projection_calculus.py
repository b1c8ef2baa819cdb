"""Excitation-number projections and weight operators.

Builds three canonical initial states (pure condensate, one excitation,
epsilon-mixed), prints their excitation-number distributions, and spot-checks
the operator identities the projection calculus rests on: resolution of
identity, the falling-factorial link between coordinate projections and
spectral weights, and the initial-moment budget table.
"""

import numpy as np

from bosonlab import projections as pj
from bosonlab import tensorstate as ts
from bosonlab.experiments import build_mixed, build_one_excitation, build_product, default_phi0
from bosonlab.model import build_model, validate_config

config = validate_config(
    {
        "dimension": 1,
        "sites_per_dim": 4,
        "torus_length": 4.0,
        "particles": 5,
        "interaction_amplitude": 0.5,
        "interaction_radius": 1.5,
        "t_final": 0.1,
        "dt": 1e-3,
    }
)
model = build_model(config)
phi0 = default_phi0(model)
n = config.particles

states = {
    "condensate": build_product(model, phi0, "tensor"),
    "one excitation": build_one_excitation(model, phi0, representation="tensor"),
    "mixed (eps=0.4)": build_mixed(model, phi0, 0.4, representation="tensor"),
}

print(f"excitation-number distribution ||P_k psi||^2, N = {n}")
header = "state            " + "".join(f"   k={k}" for k in range(n + 1))
print(header)
for name, psi in states.items():
    w = pj.spectral_weights(psi, phi0)
    print(f"{name:<17}" + "".join(f"  {x:5.3f}" for x in w.weights))

# falling-factorial identity: <q_1...q_a> computed two independent ways
print("\ncoordinate q-chains vs spectral route (must agree to 1e-10):")
rng = np.random.default_rng(5)
psi = ts.random_symmetric(config.site_count, n, model.cell, rng)
w = pj.spectral_weights(psi, phi0)
for a in (1, 2, 3):
    direct = pj.qchain_expectation(a, phi0, psi)  # raises if the routes disagree
    spectral = w.qchain(a)
    print(f"  a={a}: direct={direct:.12f}  spectral={spectral:.12f}")

# initial-data budget: c_a = ||m_hat^a psi||^2 N^(gamma a)
print("\nmoment budget at gamma = 1 (cap 1.0):")
for name, psi in states.items():
    w = pj.spectral_weights(psi, phi0)
    cs = "  ".join(f"c_{a}={w.budget(a, 1.0):.3f}" for a in range(4))
    print(f"{name:<17} {cs}   largest admissible gamma: {w.gamma_max(3):.3f}")
