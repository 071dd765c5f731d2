"""Information-overload model of trader decision-making and market efficiency."""

__version__ = "0.1.0"

from infoload.curves import (
    COST_FAMILIES,
    SUCCESS_FAMILIES,
    CostCurve,
    CurveValidationReport,
    ExpGrowthCost,
    ExpSaturating,
    Hyperbolic,
    PowerCost,
    SuccessCurve,
    ZeroCost,
    params_of,
    validate_curves,
)
from infoload.agent import (
    AgentOutcome,
    Population,
    Regime,
    Trader,
    expected_return,
    expected_utility,
    grid_oracle,
    marginal_utility,
    optimize_information,
    solve_roots,
    unconstrained_optimum,
)
from infoload.market import (
    ConjectureVerdict,
    MarketConfig,
    MarketOutcome,
    PopulationSpec,
    ReturnModel,
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    run_market,
    sample_population,
    simulate_muthian_returns,
)
from infoload.sweep import (
    PhaseDiagram,
    PhaseSeries,
    UtilityCurve,
    critical_imax_quantile,
    sweep_2d,
    sweep_imax,
    utility_curve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
