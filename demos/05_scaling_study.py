"""Convergence-rate measurement against the predicted exponent.

Sweeps the particle number at the Hartree point (beta = 0, gamma = 1,
product initial data), where the squared error of the order-a approximant
should decay like N^(-a) asymptotically.  Desk-scale N carries strong
subleading corrections, so the fitted slopes are read as qualitative
agreement: strictly ordered errors per order and slopes at least as steep
as the loose floors used by the acceptance suite.

This is a trimmed version of the full study (shorter time, coarser step);
expect roughly a minute of runtime.
"""

from bosonlab.experiments import sweep_scaling
from bosonlab.model import validate_config

config = validate_config(
    {
        "dimension": 1,
        "sites_per_dim": 4,
        "torus_length": 4.0,
        "particles": 4,
        "beta": 0.0,
        "gamma": 1.0,
        "interaction_amplitude": 0.5,
        "interaction_radius": 1.5,
        "t_final": 0.25,
        "dt": 1e-3,
        "seed": 1234,
    }
)

result = sweep_scaling(config, [4, 6, 8, 10], [1, 2, 3])
print(result.to_csv())
print(result.summary())

print("squared errors, one line per particle number:")
table = {}
for row in result.rows:
    table.setdefault(row.particles, {})[row.order] = row.err_sq
for n, errs in sorted(table.items()):
    line = "  ".join(f"a={a}: {errs[a]:.3e}" for a in sorted(errs))
    print(f"  N={n:2d}   {line}")
