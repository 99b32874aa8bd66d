"""Certified bootstrapping polynomials and performance analysis for encrypted control.

The package has three layers:

* design of refresh polynomials with a proven relative error bound
  (`bootpoly`, backed by the in-repo LP solver in `lp`),
* LMI-based certification of closed-loop l2-gain under sector-bounded
  refresh errors (`analysis`, backed by the in-repo SDP solver and the
  independent certificate checker in `sdp`),
* empirical validation on a toy homomorphic scheme (`crypto_sim`,
  `simulator`).
"""

from .analysis import (
    AnalysisReport,
    SectorBound,
    analyze_l2_gain,
    build_theorem1,
    build_theorem2,
    fir_closed_loop,
    l2_gain_index,
    make_fir_controller,
    sector_from_bootstrap,
)
from .bootpoly import (
    BootstrapPolynomial,
    BootstrapSpec,
    FitError,
    centered_mod,
    fit,
    load_poly,
    save_poly,
    slope_bound,
    verify,
)
from .crypto_sim import (
    AssumptionViolationError,
    BootstrapEvent,
    Ciphertext,
    CiphertextOverflowError,
    Keys,
    NoLevelsLeftError,
    RangeViolationError,
    SchemeError,
    SchemeParams,
    bootstrap_emulated,
    keygen,
    load_scheme,
    save_scheme,
)
from .fixtures import (
    default_bootstrap_spec,
    demo_scheme,
    demo_system,
)
from .lp import LpError, LpResult, solve_lp
from .sdp import (
    FEASIBLE,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    LmiConstraint,
    LmiProblem,
    SdpCertificate,
    SolveOutcome,
    UncertifiableError,
    bisect_gain,
    check_certificate,
    jacobi_eigvals,
    solve_feasibility,
)
from .simulator import (
    ENCRYPTED,
    FIR,
    PLAINTEXT_REFERENCE,
    RESET,
    GainStudy,
    SimulationConfig,
    SimulationResult,
    aligned_disturbance,
    estimate_empirical_gain,
    run_closed_loop,
)
from .statespace import (
    ClosedLoop,
    Controller,
    PerformanceIndex,
    Plant,
    interconnect,
    lift,
    lift_performance,
    load_system,
    save_system,
    simulate,
)

__version__ = "0.1.0"
