"""Numerical laboratory for time-frequency concentration inequalities.

Everything is sampled on a centered uniform grid of even size n with time
step dx, frequency step 1/(n dx), and the unitary integral Fourier pair

    fhat(w) = integral f(t) exp(-2 pi i t w) dt,
    f(t)    = integral fhat(w) exp(+2 pi i t w) dw,

realized exactly by scaled centered FFTs.  On top of that sit concentration
measures (defects, minimal sets, moments), Gabor/spectrogram/Wigner
transforms, localization and Weyl operators at desk scale, closed-form bound
constants, and a scenario harness that verifies every inequality end to end.
"""

from .bounds import (
    BoundValue,
    CfSearch,
    HypothesisError,
    alpha_k_profile,
    cf_bound,
    conjugate_exponent,
    delta_bound,
    ds_bound,
    heisenberg_floor,
    improved_bound,
    lieb_constant,
    locop_constant,
    price_k,
    price_ktilde,
    price_rhs,
    separate_measure_bounds,
    support_moment_sides,
)
from .concentration import (
    MaskSet,
    concentration_defect,
    energy_centroid,
    mask_from_flags,
    minimal_concentration_set,
    std_dev,
    support_mask,
    weighted_moment_norm,
)
from .core import (
    FREQUENCY,
    TIME,
    Grid,
    Signal,
    boundary_energy_fraction,
    centered_dft,
    energy,
    fourier,
    inner,
    make_grid,
    norm_lq,
    read_signal_csv,
    signal_from_samples,
    write_signal_csv,
)
from .harness import (
    DEFAULT_CHECKS,
    SMOOTHING_CHECKS,
    Scenario,
    ScenarioError,
    bundled_scenario,
    bundled_scenario_names,
    generate_signal,
    load_scenario,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    standard_suite,
)
from .operators import (
    LinearOp,
    PowerIterationError,
    SmoothedSymbol,
    apply_freq_symbol,
    gaussian_smoothed_indicator,
    linear_op,
    localization_operator,
    operator_norm,
    smoothed_concentration_ops,
    weyl_from_localization,
    weyl_operator,
)
from .report import (
    Report,
    Verdict,
    make_verdict,
    report_to_json,
    verdict_to_dict,
    write_report_json,
    write_verdicts_csv,
)
from .transforms import (
    TFMatrix,
    gabor_transform,
    gaussian_window,
    marginals,
    spectrogram_masses,
    tf_norm_lp,
    tfmatrix_from_values,
    trig_upsample2,
    wigner,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
