"""Quasi-shadowing and quasi-stability for coherent skew products on T^3."""

from .geometry import minimal_displacement, torus_distance, wrap
from .models import (
    SkewModel,
    SystemRates,
    builtin_model,
    eigen_frame,
    inverse_system,
    load_model,
    save_model,
)
from .orbits import PerturbedMap, PseudoOrbit, from_map, generate_noisy, read_orbit, validate, write_orbit
from .shadowing import (
    ShadowingParams,
    ShadowingTrace,
    VerifyReport,
    delta_for_epsilon,
    quasi_shadow,
    read_trace,
    shadow_batch,
    verify,
    write_trace,
)
from .stability import (
    SemiConjugacy,
    check_identity,
    continuity_report,
    plaque_expansiveness_probe,
    semiconjugacy,
    surjectivity_density,
)

__version__ = "0.1.0"
