"""Prescribed-time stabilization toolkit for perturbed integrator chains."""

from .core import ChainSpec, WeightVector, dilate, hong_weights, pnf_weights, sample_sphere, signed_power
from .hong import HongGainSet, HongSynthesisConfig, hong_control, hong_lyapunov, synthesize_hong_gains, verify_decay
from .pnf import LinearGain, certify_perturbation, pnf_feedback, synthesize_linear_gain, verify_lmi
from .switching import SwitchParams, design_switch_params, fixed_time_feedback
from .timescale import Density, TimeScale, build

__version__ = "0.1.0"
