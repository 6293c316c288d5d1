"""ergonil: weighted double-recurrence averages, nilsequence generators, and
finite-scale uniformity seminorms on explicit torus systems.

The package is organized by subject:

* `systems`: rotations, the skew product, exact lattice automorphisms,
  trigonometric-polynomial observables, model factor projections;
* `nilseq`: polynomial phases, orbit weights (torus nilsequences),
  Heisenberg nilsequences, products, table-backed weights;
* `averages`: Birkhoff / frequency-twisted / double-recurrence averages,
  Cesaro means of a weight, certified sup-over-frequency sweeps, schedule
  driver;
* `seminorms`: sequence and orbit uniformity seminorms, the finite van der
  Corput inequality, order-3 cube averages;
* `joinings`: power-invariant conditional expectations and the product
  formula check;
* `harness` / `cli`: JSON-config experiments with CSV + summary output.
"""

from .averages import (
    DualSystemResult,
    birkhoff_avg,
    cesaro_nilseq,
    double_avg,
    dual_system_avg,
    nil_wwdr_avg,
    poly_wwdr_avg,
    run_schedule,
    sup_over_frequency,
    weight_samples,
    ww_avg,
    ww_sup,
    wwdr_avg,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    ErgonilError,
    GridTooFineError,
    InvalidExponentsError,
    SequenceTooShortError,
    UnsupportedSystemError,
)
from .joinings import (
    InvariantExpectation,
    ProductFormulaReport,
    expectation_pairing,
    invariant_conditional_expectation,
    product_formula_check,
)
from .nilseq import (
    HeisenbergElement,
    HeisenbergNilseq,
    OrbitWeight,
    PolynomialPhase,
    Product,
    Scaled,
    Table,
    ThetaType,
    TorusChar,
    WeightSequence,
    check_gamma_invariance,
    constant_weight,
    heisenberg_pow,
    reduce_fundamental,
    table_from_csv,
)
from .report import ConvergenceReport, SeminormEstimate, SupPoint, make_report
from .seminorms import (
    CorrelationBox,
    VdcReport,
    c_h_estimate,
    cube_average,
    ghk_seminorm,
    local_seminorm,
    vanishing_experiment,
    vdc_bound,
)
from .systems import (
    AnzaiSkew,
    Observable,
    RotationTorus,
    ToralAutomorphism,
    constant_observable,
    eval_observable,
    integrate_observable,
    observable,
    orbit_coords,
    orbit_point,
    project_Zk,
    zk_complement,
)

__version__ = "0.1.0"
