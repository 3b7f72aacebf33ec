"""The §5.3 "ignore path" analysis, executable.

The paper's method: model the server's TCP stack, enumerate the program
paths on which an incoming packet is *silently ignored* (state
unchanged), derive the constraint for each path, emit a candidate
insertion packet per constraint, and keep the candidates the GFW still
*accepts* — those are usable insertion packets (Table 3).  Candidates
are then cross-validated against other kernel versions (the §5.3
version notes) and against middlebox profiles (which prunes the set
down to Table 5's preferred constructions).

Because our server stack is an executable model whose every ignore
branch is an explicit :class:`~repro.tcp.stack.DropReason`, the
enumeration here is *dynamic*: each candidate packet is fired at a live
server in the target TCP state and at a live GFW device, and the
verdict is read from their actual state, not from source inspection.
"""

from repro.exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".ignore_paths": (
        "IgnoreProbe", "IgnoreVerdict", "STANDARD_PROBES", "ServerHarness",
        "run_ignore_path_analysis",
    ),
    ".probe": ("GFWHarness", "gfw_accepts_probe"),
    ".discrepancy": (
        "DiscrepancyRow", "cross_validate_middleboxes", "cross_validate_stacks",
        "derive_table5", "generate_table3",
    ),
    ".inconsistency": ("InconsistencyReport", "run_inconsistency"),
})
