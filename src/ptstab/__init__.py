"""Prescribed-time stabilization toolkit for perturbed integrator chains."""

from .core import ChainSpec, dilate, hong_weights, pnf_weights, sample_sphere
from .hong import HongGainSet, hong_control, hong_lyapunov, synthesize_hong_gains, verify_decay
from .pnf import LinearGain, certify_perturbation, pnf_feedback, synthesize_linear_gain
from .switching import SwitchParams, design_switch_params
from .timescale import Density, TimeScale, build

__version__ = "0.1.0"
