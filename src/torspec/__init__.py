"""Resonance spectra of rational Anosov torus maps.

Construct hyperbolic rational maps of the complex 2-torus as generator words,
predict their full resonance spectrum in closed form from fixed-point data,
and verify the prediction against truncated composition-operator matrices on
anisotropically weighted Fourier bases.

The last bits of a dense eigensolve or matrix power depend on how many
threads BLAS splits it over, even where the matrix itself does not, so
importing the package sets OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and
BLIS_NUM_THREADS to 1 wherever the caller has not set them: outputs then do
not depend on the host's core count.  That caps an OpenBLAS, MKL or BLIS
build of numpy at one thread per call, but only if numpy has not been
imported yet; a BLAS threaded through OpenMP alone, by OMP_NUM_THREADS, is
not capped.  The variables stay in os.environ, so subprocesses inherit them.
"""

import os

# before numpy first loads: with two OpenBLAS threads, the matrix of the
# grid-route word G(0.2,0.1) . F . F . R at band 10 is the same bit for bit,
# but its spectrum and the trace powers tr(M^3) and tr(M^5) differ in the
# last bits
for _name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .map_algebra import (
    INF,
    Atom,
    IndeterminatePointError,
    MapWord,
    PoleInChainError,
    WordSyntaxError,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    atom_R,
    complex_jacobian,
    concat,
    evaluate,
    evaluate_lifted,
    inverse,
    lifted_jacobian,
    linear_part,
    orientation,
    parse_word,
    psi_word,
    simplify,
    u_block,
    word_power,
    word_to_text,
    xi_word,
)
from .cone_geometry import QuadrantWeight
from .fixed_points import (
    FixedPointData,
    FixedPointError,
    FixedPointRecord,
    all_fixed_point_data,
    sector_fixed_point,
    verify_conjugate_pairs,
)
from .gl2z import (
    HomotopicMap,
    StandardForm,
    TargetInfeasible,
    build_homotopic_map,
    is_hyperbolic,
    matrix_to_word,
    random_hyperbolic,
    reduce,
)
from .resonance_theory import (
    EigenvalueEntry,
    SpectrumModel,
    closed_form_multipliers_psi,
    closed_trace,
    counting_function,
    decay_classification,
    embedding_eta_formula,
    embedding_gaps,
    embedding_singular_values,
    enumerate_eigenvalues,
    fit_stretched_rate,
    leading_moduli,
    psi_cases,
    spectral_determinant,
    spectrum_model_from_fixed_points,
    spectrum_model_from_word,
    spectrum_model_psi,
)
from .operator_numerics import (
    AssembledOperator,
    MatchReport,
    TruncationSizeError,
    assemble_operator,
    match_spectra,
    numeric_trace_power,
    operator_spectrum,
    write_spectrum_csv,
)
from .dynamics_checks import (
    CertificateReport,
    CertificationError,
    auto_weight,
    check_psec,
    classify_mapping,
    find_connecting_torus,
    is_area_preserving,
    resolve_cases,
    verify_reversing_symmetry,
)

# the import lists above are the public API: every public name they bind, but
# neither os nor the submodules that binding them loads
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, type(os))]
