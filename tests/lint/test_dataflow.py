"""The shared intra-procedural core: CFG shape, reaching definitions,
and the taint lattice."""

import ast

import pytest

from repro.lint.dataflow import (ALL_TAGS, ORDER_TAGS, TAG_LISTING, TAG_RNG,
                                 TAG_SET, TAG_TIME, FunctionFlow, CodeUnit,
                                 collect_units, return_summaries)


def _flow(src, name=None, summaries=None):
    units = collect_units(ast.parse(src))
    if name is None:
        unit = units[1] if len(units) > 1 else units[0]
    else:
        unit = next(u for u in units if u.name == name)
    return FunctionFlow(unit, summaries)


def _node_at(flow, lineno):
    for node in flow.nodes:
        if node.stmt.lineno == lineno:
            return node
    raise AssertionError(f"no CFG node at line {lineno}")


def _tags_of(flow, lineno, name):
    node = _node_at(flow, lineno)
    return flow.env_in[node.index].get(name, frozenset())


# ---------------------------------------------------------------------------
# CFG + reaching definitions
# ---------------------------------------------------------------------------
def test_units_are_module_and_each_def_with_qualnames():
    src = (
        "x = 1\n"
        "def top(): pass\n"
        "class C:\n"
        "    def method(self): pass\n"
    )
    names = [u.name for u in collect_units(ast.parse(src))]
    assert names == ["<module>", "top", "C.method"]


def test_branches_merge_both_definitions():
    flow = _flow(
        "def f(cond):\n"
        "    if cond:\n"
        "        x = 1\n"
        "    else:\n"
        "        x = 2\n"
        "    return x\n")
    node = _node_at(flow, 6)
    lines = sorted(d.lineno for d in flow.defs_of(node.index, "x"))
    assert lines == [3, 5]


def test_straightline_assignment_kills_the_old_definition():
    flow = _flow(
        "def f():\n"
        "    x = 1\n"
        "    x = 2\n"
        "    return x\n")
    node = _node_at(flow, 4)
    assert [d.lineno for d in flow.defs_of(node.index, "x")] == [3]


def test_mutation_is_a_weak_update_not_a_kill():
    flow = _flow(
        "def f():\n"
        "    d = {}\n"
        "    d['k'] = 1\n"
        "    return d\n")
    node = _node_at(flow, 4)
    assert sorted(d.lineno for d in flow.defs_of(node.index, "d")) == [2, 3]


def test_loop_body_definition_reaches_the_header():
    flow = _flow(
        "def f(items):\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        total = total + item\n"
        "    return total\n")
    header = _node_at(flow, 3)
    lines = sorted(d.lineno for d in flow.defs_of(header.index, "total"))
    assert lines == [2, 4]


def test_try_body_reaches_every_handler():
    flow = _flow(
        "def f():\n"
        "    x = 1\n"
        "    try:\n"
        "        x = risky()\n"
        "        x = 3\n"
        "    except ValueError:\n"
        "        return x\n"
        "    return x\n")
    handler_return = _node_at(flow, 7)
    lines = sorted(d.lineno for d in flow.defs_of(handler_return.index, "x"))
    # the handler may run after any body statement, including none
    assert lines == [2, 4, 5]


def test_with_as_binds_and_return_only_body_terminates():
    flow = _flow(
        "def f(lock):\n"
        "    with lock() as guard:\n"
        "        return guard\n")
    node = _node_at(flow, 3)
    assert [d.name for d in flow.defs_of(node.index, "guard")] == ["guard"]


# ---------------------------------------------------------------------------
# Taint lattice
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("expr,tag", [
    ("set(items)", TAG_SET),
    ("{1, 2}", TAG_SET),
    ("base.glob('*.json')", TAG_LISTING),
    ("os.listdir(path)", TAG_LISTING),
    ("np.random.default_rng()", TAG_RNG),
    ("time.perf_counter()", TAG_TIME),
])
def test_sources_produce_their_tag(expr, tag):
    flow = _flow(f"def f(items, base, path, np, time, os):\n"
                 f"    x = {expr}\n"
                 f"    return x\n")
    assert tag in _tags_of(flow, 3, "x")


def test_taint_survives_assignment_chains_and_wrappers():
    flow = _flow(
        "def f(work):\n"
        "    pending = set(work)\n"
        "    queue = list(pending)\n"
        "    pairs = enumerate(queue)\n"
        "    return pairs\n")
    assert TAG_SET in _tags_of(flow, 5, "pairs")


def test_sorted_is_the_sanitizer():
    flow = _flow(
        "def f(work):\n"
        "    pending = set(work)\n"
        "    queue = sorted(pending)\n"
        "    return queue\n")
    assert _tags_of(flow, 4, "queue") == frozenset()


def test_comprehension_inherits_generator_taint():
    flow = _flow(
        "def f(base):\n"
        "    names = [p.name for p in base.iterdir()]\n"
        "    return names\n")
    assert TAG_LISTING in _tags_of(flow, 3, "names")


def test_dict_view_and_copy_inherit_receiver_taint():
    flow = _flow(
        "def f(work):\n"
        "    seen = set(work)\n"
        "    snap = seen.copy()\n"
        "    return snap\n")
    assert TAG_SET in _tags_of(flow, 4, "snap")


def test_container_mutation_taints_the_receiver():
    flow = _flow(
        "def f(work):\n"
        "    out = []\n"
        "    out.append(set(work))\n"
        "    return out\n")
    assert TAG_SET in _tags_of(flow, 4, "out")


def test_subscript_store_taints_the_base_weakly():
    flow = _flow(
        "def f(config):\n"
        "    encoded = {}\n"
        "    encoded['fields'] = set(config)\n"
        "    return encoded\n")
    assert TAG_SET in _tags_of(flow, 4, "encoded")


def test_dict_and_list_literals_carry_element_taint():
    flow = _flow(
        "def f(config):\n"
        "    fields = set(config)\n"
        "    payload = {'fields': list(fields)}\n"
        "    wrapped = [payload]\n"
        "    return wrapped\n")
    assert TAG_SET in _tags_of(flow, 5, "wrapped")


def test_loop_carried_taint_reaches_a_fixpoint():
    flow = _flow(
        "def f(rounds, work):\n"
        "    acc = []\n"
        "    for _ in rounds:\n"
        "        acc = acc + list(set(work))\n"
        "    return acc\n")
    assert TAG_SET in _tags_of(flow, 5, "acc")


def test_reassignment_to_clean_value_clears_taint():
    flow = _flow(
        "def f(work):\n"
        "    x = set(work)\n"
        "    x = [1, 2]\n"
        "    return x\n")
    assert _tags_of(flow, 4, "x") == frozenset()


def test_one_level_helper_summaries():
    src = (
        "def helper(items):\n"
        "    return set(items)\n"
        "\n"
        "def caller(items):\n"
        "    got = helper(items)\n"
        "    return got\n")
    summaries = return_summaries(ast.parse(src))
    assert summaries == {"helper": frozenset({TAG_SET})}
    flow = _flow(src, name="caller", summaries=summaries)
    assert TAG_SET in _tags_of(flow, 6, "got")


def test_parameters_enter_untainted():
    flow = _flow(
        "def f(items):\n"
        "    return items\n")
    assert _tags_of(flow, 2, "items") == frozenset()


def test_order_tags_are_a_strict_subset_of_all_tags():
    assert ORDER_TAGS < ALL_TAGS
    assert TAG_RNG in ALL_TAGS - ORDER_TAGS
    assert TAG_TIME in ALL_TAGS - ORDER_TAGS
