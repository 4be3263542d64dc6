"""Exact combinatorics for symbolic dynamics.

Subshift periodic-orbit accounting, marker calculus on array windows,
prefix-allocated block families with an embedding selector, and entropy /
period-tail diagrams with exact envelope and repair operators.
"""

from .dbar import OrbitMixture, dbar_mixture, dbar_periodic
from .diagram import (
    FamilyLink,
    MeasureDiagram,
    Node,
    SeqSpec,
    lin,
    seq_on,
    seq_step,
)
from .entropy import EntropyBracket, EntropyValue
from .envelope import (
    DiagramReport,
    analyze_diagram,
    is_repair,
    is_superenvelope,
    minimal_repair,
    u_one,
    usc_envelope,
)
from .extension import (
    OracleTable,
    Rectangle,
    RectangleHierarchy,
    build_families,
    build_strips,
    embed_selector,
    hall_match,
    normalize_oracle,
    prefix_allocate,
)
from .generator import block_code, extract_generator, partition_to_extension
from .markers import (
    ArrayWindow,
    MarkerSchedule,
    aperiodicize,
    decompose_gap,
    leftward_stretch,
    periodic_markers,
    place_krieger,
    subdivide_balance,
    upward_adjust,
    upward_stretch,
    verify_invariants,
    window_from_rows,
)
from .period_tail import period_tail_from_system
from .scenarios import run_scenario
from .sft import (
    Alphabet,
    PeriodicOrbit,
    SftSpec,
    capacities,
    full_shift,
    golden_mean,
    per_table,
    periodic_orbits,
    top_entropy,
    word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
