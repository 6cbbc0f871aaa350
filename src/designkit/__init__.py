"""Conceptual design toolkit for a quadrotor biplane tail-sitter UAV.

Subpackages cover the proprotor aerodynamics (``airfoil``, ``bemt``), the
design-space search (``explorer``), lifting-surface and powertrain sizing
(``wing``, ``powertrain``), and a variable-pitch quadrotor flight
simulation (``flightsim``).  ``presets`` holds the reference vehicle that
the studies and the acceptance checks are built around.
"""

from .airfoil import AirfoilPolar
from .bemt import (
    BladeGeometry,
    InflowSolution,
    OperatingPoint,
    RotorCurve,
    RotorPerformance,
    StationSolution,
    evaluate_rotor,
    solve_station,
    speed_curve,
    thrust_curve,
    thrust_curves,
)
from .errors import (
    ConfigError,
    DesignError,
    DivergenceError,
    EngineCapacityError,
    GeometryError,
    MissionTimeout,
    NoRootError,
    PolarDataError,
    PolarFormatError,
    SimulationAbort,
    StallLimitError,
    TrimError,
)
from .explorer import (
    OptimizationResult,
    OptimizationSpec,
    SweepSpec,
    SweepTable,
    optimize,
    run_sweep,
    trim_collective,
)
from .flightsim import (
    ControlCommand,
    GainSet,
    MissionLog,
    PitchMap,
    VehicleParams,
    VehicleState,
    allocate,
    default_params,
    mixing_forward,
    run_mission,
    step_dynamics,
)
from .powertrain import (
    DEFAULT_ENGINE,
    EngineSpec,
    GearSpec,
    MassEntry,
    PowerBudget,
    ScalableMass,
    WeightLedger,
    agma_face_width,
    build_gear_train,
    design_budget,
    iterate_gross_weight,
    min_pinion_teeth,
    power_budget,
    train_reduction,
)
from .wing import (
    BiplaneSizing,
    WingDesignInputs,
    WingLoadingStudy,
    WingPlanform,
    biplane_power_ratio,
    cruise_drag,
    power_vs_wing_loading,
    size_biplane,
    stall_wing_loading,
)

__version__ = "0.1.0"
