"""Co-simulation of event-triggered control loops over a back-pressure network."""

__version__ = "0.1.0"
