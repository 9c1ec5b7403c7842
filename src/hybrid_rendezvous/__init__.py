"""Impulsive hybrid-control rendezvous simulation on the HCW model.

Modules
-------
hcw
    Plant dynamics, exact propagation, the saturation map, and the in-plane
    coordinate change.
engine
    Generic hybrid executor: fixed-step flow, guard localization, prioritized
    jump resolution.
controllers
    Dwell timers and ``fire``, the firing rule that every channel shares.
closed_loop
    Plant plus ``CHANNELS``, each channel's guard, law and V; attractors.
analysis
    Certificate checks (flow invariance, jump decrease), delta-v budgets,
    convergence times.
config / cli
    Scenario files and the ``hybrid-rdv`` command-line front end.
"""

__version__ = "0.1.0"
