"""Finite-fragment workbench for decomposing grid functions into a
hereditarily thrifty core plus width-harmless relabelings, and synthesizing
the core as a certified term over one witness function and named atoms."""

from .core import (
    App,
    AtomBinding,
    IndexSet,
    MTuple,
    PartialFn,
    Point,
    Proj,
    Term,
    compile_term,
    compose,
    full_index,
)
from .analysis import (
    fiber_columns,
    tuple_bounds,
    width,
)
from .decompose import (
    countable_selection,
    hereditary_decompose,
    verify_decomposition,
)
from .synth import (
    assemble_term,
    build_Q,
    build_h_family,
    end_to_end_synthesize,
    factor_keys,
    main_lemma_certify,
    normalize_f,
    oplus,
    reduce_to_unary,
    spanned_family,
    verify_Q_in_CI,
)
from .instances import Instance, check_admissibility, generate_instance
from .pipeline import run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
