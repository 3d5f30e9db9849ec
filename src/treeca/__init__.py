"""Ranked tree automata: bottom-up and top-down, with determinization,
co-determinization, congruence-based and double-reversal minimization,
path-closedness, and a brute-force oracle layer for bounded checks.

Importing the package loads none of its modules.  Each public name is read
from the module that defines it on first use (PEP 562), and is then kept in
the package's namespace, so a command line run loads only what it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each module
_EXPORTS = {
    "analysis": """Spine bta_congruence_down bta_congruence_up pre_context
        root_to_pivot_equiv spine_of""",
    "automata": """Bta Tta accepts is_codeterministic is_deterministic post_tree
        reachable_states reverse_bta reverse_tta seeded_post subset_name
        trim_empty trim_unreachable useful_states wpre""",
    "errors": """DEFAULT_STATE_BUDGET AddressError BudgetError MalformedContextError
        NotDeterministicError NotPathClosedError NotWellRankedError ParseError
        TreecaError""",
    "fileformat": "parse_automaton serialize_automaton",
    "minimize": """brzozowski canonical_form check_gen_det_d check_gen_det_u
        equivalent gen_det_u_witness is_path_closed isomorphic min_codbta
        minimize_bta minimize_dbta separating_tree""",
    "oracle": """language_upto nerode_classes_down nerode_classes_up
        quotient_member_down quotient_member_up""",
    "transforms": """codeterminize complete determinize subset_construction
        tta_accepts tta_determinize""",
    "trees": """DEFAULT_ENUM_BUDGET HOLE RankedAlphabet Tree check_well_ranked
        enumerate_contexts enumerate_trees format_address format_path format_term
        hole_height is_context is_well_ranked iter_nodes parse_context parse_term
        path_language pivot plug puncture subtree substitute""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
