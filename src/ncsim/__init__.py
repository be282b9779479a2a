"""Co-simulation of event-triggered control loops over a back-pressure network."""

from .control import (InputLog, LqgSolution, PlantSpec, ReplayError,
                      RiccatiDivergenceError, compute_gain, control_input,
                      design_lqg, error_step, estimator_deliver,
                      estimator_predict, plant_step, solve_riccati, stage_cost)
from .engine import (NonFiniteError, RunMetrics, Scenario, SweepResult, build_scenario_tables,
                     make_two_hop_scenario, run, run_seed, sweep)
from .network import (ActionSet, BufferSet, ConstantLinkState, Packet,
                      RateContractError, ScheduleChoice, Topology, assign_flow,
                      lindley_step, pick_max_weight, stability_diagnostic,
                      transmit, wsr_schedule)
from .sampler import (SamplerState, ThresholdStructureError, ThresholdTable,
                      ValueIterationError, ViConfig, build_table,
                      default_lambda_grid, design_threshold, lookup,
                      plant_class_id, sampling_decision)

__version__ = "0.1.0"
