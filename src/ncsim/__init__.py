"""Co-simulation of event-triggered control loops over a back-pressure network."""

from .control import (InputLog, LqgSolution, PlantSpec, ReplayError,
                      RiccatiDivergenceError, compute_gain, design_lqg,
                      estimator_deliver, solve_riccati)
from .engine import (NonFiniteError, RunMetrics, Scenario, SweepResult,
                     make_two_hop_scenario, run, run_seed, sweep)
from .network import (ActionSet, BufferSet, ScheduleChoice, Topology,
                      assign_flow, pick_max_weight, stability_diagnostic,
                      transmit, wsr_schedule)
from .sampler import (ThresholdStructureError, ThresholdTable,
                      ValueIterationError, ViConfig, build_table,
                      default_lambda_grid, design_threshold, plant_class_id)

__version__ = "0.1.0"
