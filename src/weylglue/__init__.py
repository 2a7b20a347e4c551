"""Numerical laboratory for the Weyl-energy-decreasing connected-sum gluing.

The package builds algebraic Weyl tensors, the quadratic curvature models of
the two summands, the biharmonic interpolant joining them across an annulus,
and the glued metric chart, then evaluates the Weyl-energy balance whose
negativity certifies the strict energy decrease.
"""

from .tensor_core import (algweyl_from_spectrum, kulkarni_nomizu, spectrum_from_json,
                          weyl_from_riemann)
from .duality import (align_and_interact, derdzinski_frame, interaction_star,
                      positivity_bound, reverse_orientation, spectra)
from .biharmonic import assemble_interpolant, solve_profile
from .gluing import GluedChart, GluingParams, RegimeWarning
from .energy import (EnergyBalance, boundary_functional, choose_parameters,
                     dilation_energy, energy_balance, extract_interaction_coefficient,
                     phi_inner, phi_outer, second_variation, sphere_moment,
                     sphere_rule)

__version__ = "0.1.0"

__all__ = [
    "algweyl_from_spectrum", "kulkarni_nomizu",
    "spectrum_from_json", "weyl_from_riemann",
    "align_and_interact", "derdzinski_frame",
    "interaction_star", "positivity_bound", "reverse_orientation", "spectra",
    "assemble_interpolant", "solve_profile",
    "GluedChart", "GluingParams", "RegimeWarning",
    "EnergyBalance", "boundary_functional", "choose_parameters", "dilation_energy",
    "energy_balance",
    "extract_interaction_coefficient", "phi_inner", "phi_outer",
    "second_variation", "sphere_moment", "sphere_rule",
]
