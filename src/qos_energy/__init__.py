"""Effective-capacity energy and bandwidth tradeoffs under QoS constraints.

The package computes spectral efficiency versus bit energy for block-fading
channels whose buffer occupancy must satisfy an exponential tail constraint
with exponent theta, with channel state known at the receiver only (csir)
or at both ends (csit).  Submodules:

    fading       channel gain distributions and expectations
    effcap       effective capacity, power policies, Shannon limits
    asymptotics  minimum bit energy and wideband slope
    sweep        figure-style dataset generation
    queuesim     Monte Carlo queue validation of the QoS exponent
    cli          the qos-energy command line tool
"""

from .asymptotics import (
    AlphaStarSolution,
    AsymptoticSummary,
    delta_bit_energy,
    linear_approx,
    lowpower_csir,
    lowpower_csit,
    solve_alpha_star,
    wideband_csir,
    wideband_csit,
)
from .effcap import (
    PowerPolicy,
    QosConfig,
    bit_energy,
    bit_energy_db,
    delay_limited_limit,
    power_policy_value,
    service_rate_csir,
    service_rate_csit,
    shannon_limit,
    solve_alpha,
    spectral_efficiency_csir,
    spectral_efficiency_csit,
)
from .errors import (
    BracketFailure,
    DivergentInverseMoment,
    InsufficientSamples,
    NonIntegrable,
    NumericalError,
    ThetaZero,
    Unstable,
)
from .fading import (
    BoundedTable,
    Deterministic,
    FadingModel,
    NakagamiM,
    Rayleigh,
    from_config,
)
from .queuesim import (
    SimConfig,
    TailEstimate,
    effective_capacity_empirical,
    predicted_effective_capacity,
    simulate_queue,
)
from .sweep import (
    AlphaZetaCurve,
    Curve,
    Surface,
    SweepSpec,
    TradeoffPoint,
    alpha_vs_zeta,
    default_grid,
    ebn0_min_surface,
    tradeoff_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaStarSolution",
    "AlphaZetaCurve",
    "AsymptoticSummary",
    "BoundedTable",
    "BracketFailure",
    "Curve",
    "Deterministic",
    "DivergentInverseMoment",
    "FadingModel",
    "InsufficientSamples",
    "NakagamiM",
    "NonIntegrable",
    "NumericalError",
    "PowerPolicy",
    "QosConfig",
    "Rayleigh",
    "SimConfig",
    "Surface",
    "SweepSpec",
    "TailEstimate",
    "ThetaZero",
    "TradeoffPoint",
    "Unstable",
    "alpha_vs_zeta",
    "bit_energy",
    "bit_energy_db",
    "default_grid",
    "delay_limited_limit",
    "delta_bit_energy",
    "ebn0_min_surface",
    "effective_capacity_empirical",
    "from_config",
    "linear_approx",
    "lowpower_csir",
    "lowpower_csit",
    "power_policy_value",
    "predicted_effective_capacity",
    "service_rate_csir",
    "service_rate_csit",
    "shannon_limit",
    "simulate_queue",
    "solve_alpha",
    "solve_alpha_star",
    "spectral_efficiency_csir",
    "spectral_efficiency_csit",
    "tradeoff_curve",
    "wideband_csir",
    "wideband_csit",
]
