"""Core combinator language: splitting, small and big steps, languages."""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from strategem import navigation, powers
from strategem.navigation import (
    DOWNS,
    RIGHT,
    UP,
    bottom_up,
    focus_at,
    once,
    positions,
    somewhere,
    unfocus,
)
from strategem.powers import ADD_EXP, DIST_EXP, MUL_EXP, parse, print_expr
from strategem.strategy import (
    FAIL,
    SUCCEED,
    Budget,
    BudgetExceededError,
    Check,
    Choice,
    Environment,
    Label,
    LeftRecursionError,
    Rec,
    RewriteRule,
    Rule,
    Seq,
    State,
    Var,
    _has_end_state,
    _split_cache,
    big_step_traced,
    check_plan,
    choice,
    depth_effect,
    enter_rule,
    has_minor_completion,
    leave_rule,
    minor_sentences,
    nothing_free,
    nullable,
    option,
    orelse,
    passable,
    repeat,
    rules_of,
    seq,
    split,
    step,
    total,
    try_,
    unroll,
    walk,
)

from conftest import DEC, KEEP_LEFT, NAV_ATOMS, initial, toy_strategies, toy_terms
from support import (
    accepts_empty,
    language_upto,
    majors_of,
    plain_has_end_state,
    plain_minor_sentences,
    recognize,
    run,
    split_unguarded,
)

A = Rule(ADD_EXP)
M = Rule(MUL_EXP)
D = Rule(DIST_EXP)


def remaining_of(states):
    return [st.remaining for st in states]


# ---------------------------------------------------------------------------
# construction helpers

def test_seq_folds_right():
    assert seq(A, M, D) == Seq(A, Seq(M, D))
    assert seq(A) == A
    assert seq() == SUCCEED


def test_choice_folds_right():
    assert choice(A, M, D) == Choice(A, Choice(M, D))
    assert choice() == FAIL


def test_orelse_commits_to_the_first_branch_when_it_can_run():
    assert orelse(A, M) == Choice(A, Seq(Check(A), M))


def test_option_and_try_shapes():
    assert option(A) == Choice(A, SUCCEED)
    assert try_(A) == orelse(A, SUCCEED)


def test_repeat_shape():
    assert repeat(A) == Rec("x", try_(Seq(A, Var("x"))))


def test_unroll_replaces_free_occurrences_only():
    rec = Rec("x", Seq(A, Var("x")))
    assert unroll(rec) == Seq(A, rec)
    # an inner binder of the same name shadows the outer one
    shadowing = Rec("x", Seq(Var("x"), Rec("x", Var("x"))))
    inner = Rec("x", Var("x"))
    assert unroll(shadowing) == Seq(shadowing, inner)
    # check bodies participate in substitution
    rec2 = Rec("x", Check(Var("x")))
    assert unroll(rec2) == Check(rec2)
    assert unroll(A) == A


def test_rules_of_dedups_by_identity_and_sees_check_bodies():
    s = Seq(Check(Choice(A, M)), Seq(A, D))
    assert rules_of(s) == (ADD_EXP, MUL_EXP, DIST_EXP)


# ---------------------------------------------------------------------------
# nullability

def test_nullable_examples():
    assert nullable(SUCCEED)
    assert not nullable(FAIL)
    assert not nullable(A)
    assert not nullable(Check(A))
    assert nullable(option(A))
    # repeat exits through a check atom, so its language has no strictly
    # empty sentence, though it does have an all-minor one
    assert not nullable(repeat(A))
    assert accepts_empty(repeat(A))
    assert not nullable(Label("l", SUCCEED))
    assert not nullable(Seq(A, option(M)))
    assert nullable(Seq(option(A), option(M)))


def test_nullable_rec_assumes_nothing_about_its_own_variable():
    assert not nullable(Rec("x", Var("x")))
    assert nullable(Rec("x", Choice(SUCCEED, Var("x"))))


def test_accepts_empty_differs_from_nullable_on_minors_and_checks():
    assert accepts_empty(Check(A))
    assert accepts_empty(Rule(UP))
    assert not accepts_empty(A)
    assert accepts_empty(Label("l", SUCCEED))
    assert accepts_empty(Seq(Rule(UP), Rule(DOWNS)))
    assert not accepts_empty(Seq(Rule(UP), A))


def test_unbound_variable_is_an_error():
    assert not nullable(Var("loose"))
    with pytest.raises(ValueError):
        split(Var("loose"))


def test_an_analysed_strategy_is_freed_once_dropped():
    # a rule of its own, so no other test's strategy shares a node with it
    own = Rule(RewriteRule(name="Own", transform=lambda env, focus: (), key=("Own", "gc"),
                           depth=(0, 0)))
    s = Rec("x", option(seq(Label("l", own), Var("x"))))
    check = Check(s)
    assert nullable(s) and not nullable(check)
    assert total(s) and not total(check)
    assert depth_effect(check) == (0, 0)
    assert check_plan(check) == (s, True)
    assert unroll(s) != s
    assert passable(s, nothing_free)
    dropped = weakref.ref(check), weakref.ref(s)
    del own, s, check
    gc.collect()
    assert [ref() for ref in dropped] == [None, None]


def test_intern_tables_shrink_back_once_values_are_dropped():
    # one object per value, held weakly: a dropped term, zipper, state and
    # recursive strategy leave no entry behind, even once analysed and run
    classes = (powers.Var, powers.Power, powers.Mul, navigation.Frame, navigation.Zipper,
               Environment, State, Rule, Seq, Choice, Label, Rec, Var)
    gc.collect()
    before = [len(cls._table) for cls in classes]
    term = parse("(fresh^2*fresh^3)^4*fresh")
    zipper = focus_at(navigation.focus_root(term), (0, 0))
    s = Rec("fresh", Choice(Label("fresh", Seq(Rule(DOWNS), Seq(Var("fresh"), Rule(UP)))), A))
    state = State(Environment().push_label("fresh"), zipper, s)
    assert big_step_traced(state) and nullable(unroll(s)) is False
    assert all(len(cls._table) > n for cls, n in zip(classes, before))
    del term, zipper, s, state
    gc.collect()  # a Rec keeps its unrolling, which refers back to it
    assert [len(cls._table) for cls in classes] == before


# ---------------------------------------------------------------------------
# split

def test_split_atom_and_units():
    assert split(A) == ((A, SUCCEED),)
    assert split(SUCCEED) == ()
    assert split(FAIL) == ()
    chk = Check(M)
    assert split(chk) == ((chk, SUCCEED),)


def test_split_seq_and_choice():
    assert split(Seq(A, M)) == ((A, M),)
    assert split(Choice(A, M)) == ((A, SUCCEED), (M, SUCCEED))
    # a nullable head exposes the tail as well, after the head's own splits
    assert split(Seq(option(A), M)) == ((A, M), (M, SUCCEED))


def test_split_label_expands_to_enter_with_bracketed_rest():
    pairs = split(Label("l", A))
    assert len(pairs) == 1
    atom, rest = pairs[0]
    assert atom.rule.name == "Enter(l)"
    assert type(rest) is Seq and rest.left == A
    assert rest.right.rule.name == "Leave(l)"


def test_split_remainders_absorb_the_unit():
    # Seq(A, SUCCEED) must leave remainder A, not Seq(A, SUCCEED)
    assert split(Seq(A, SUCCEED)) == ((A, SUCCEED),)
    assert split(Seq(SUCCEED, A)) == ((A, SUCCEED),)


def test_split_repeat():
    rep = repeat(A)
    pairs = split(rep)
    # one way in through the rule, one through the check guarding the exit
    atoms = [atom for atom, _ in pairs]
    assert atoms[0] == A
    assert type(atoms[1]) is Check
    assert pairs[0][1] == rep


def test_split_detects_left_recursion_and_caches_the_outcome():
    looping = Rec("z", Seq(Var("z"), A))
    with pytest.raises(LeftRecursionError, match=r"\(binder 'z'\)"):
        split(looping)
    # cached failure raises again, naming the binder, instead of returning stale data
    with pytest.raises(LeftRecursionError, match=r"\(binder 'z'\)"):
        split(looping)


def test_split_is_kept_on_its_node_and_freed_with_it():
    # the benchmark's tracer counts _split_cache: a node is in it when it
    # keeps a split itself, and its entry dies with it
    own = Rule(RewriteRule(name="Own", transform=lambda env, focus: (), key=("Own", "split"),
                           depth=(0, 0)))
    s, equal = repeat(Label("l", own)), repeat(Label("l", own))
    assert s not in _split_cache
    pairs = split(s)
    assert s in _split_cache and equal is s and equal in _split_cache
    assert split(s) is pairs
    gc.collect()
    entries = len(_split_cache)
    dropped = weakref.ref(s)
    del s, equal, pairs
    gc.collect()  # a Rec keeps its unrolling, which refers back to it
    assert dropped() is None
    assert len(_split_cache) < entries


def test_a_label_builds_its_enter_and_leave_atoms_once():
    s = Rec("x", Label("deep", Var("x")))
    enters, rest = [], s
    for _ in range(3):
        [(enter, rest)] = split(rest)
        enters.append(enter)
    leaves = [node for _, node in walk(rest) if type(node) is Rule]
    assert len(leaves) == 3
    assert all(atom is enters[0] for atom in enters)
    assert all(atom is leaves[0] for atom in leaves)
    # passable asks about the same Enter atom
    asked = []
    passable(unroll(s), lambda atom: asked.append(atom) or True)
    assert asked[0] is enters[0]


def test_split_right_recursion_is_fine():
    ok = Rec("z", Seq(A, Var("z")))
    # unrolling once puts the binder back in remainder position
    assert split(ok) == ((A, ok),)


def test_split_unguarded_runs_out_of_budget_on_left_recursion():
    looping = Rec("z", Seq(Var("z"), A))
    with pytest.raises(BudgetExceededError):
        split_unguarded(looping, Budget(1000))


def test_split_unguarded_agrees_on_finite_cases():
    for s in (A, Seq(A, M), Choice(A, M), repeat(A), Label("l", Choice(A, M))):
        assert frozenset(split_unguarded(s, Budget(10_000))) == frozenset(split(s))


# ---------------------------------------------------------------------------
# step

def test_step_applies_each_split_atom():
    st = initial(parse("a^3*a^4"), Choice(A, M))
    out = step(st)
    assert len(out) == 1
    rule, succ = out[0]
    assert rule is ADD_EXP
    assert print_expr(unfocus(succ.focus)) == "a^7"
    assert succ.remaining == SUCCEED


def test_step_check_succeeds_only_when_inner_cannot_run():
    st = initial(parse("a^3*a^4"), Check(M))
    out = step(st)
    assert len(out) == 1
    rule, succ = out[0]
    assert rule.name == "AppCheck"
    assert rule.minor
    assert unfocus(succ.focus) == parse("a^3*a^4")

    blocked = initial(parse("(a^3)^2"), Check(M))
    assert step(blocked) == []


def test_step_on_exhausted_strategy_is_empty():
    st = initial(parse("a"), SUCCEED)
    assert step(st) == []


def test_step_budget_is_charged():
    st = initial(parse("a^3*a^4"), choice(A, Rule(DEC), Rule(KEEP_LEFT)))
    with pytest.raises(BudgetExceededError):
        step(st, Budget(1))


# ---------------------------------------------------------------------------
# check evaluation: totality, locality and the memo key

def test_totality_of_the_combinators():
    assert total(SUCCEED) and total(try_(A)) and total(option(A)) and total(repeat(A))
    assert total(Seq(try_(A), repeat(M)))
    assert not total(A) and not total(FAIL) and not total(Check(A))
    assert not total(Label("l", SUCCEED))
    # the bound variable is not total: this loop has no run
    assert not total(Rec("x", Seq(SUCCEED, Var("x"))))
    assert total(Rec("x", Choice(Seq(A, Var("x")), SUCCEED)))


def test_depth_effects_of_navigation():
    assert depth_effect(Rule(DOWNS)) == (0, 1)
    assert depth_effect(Rule(UP)) == (1, -1)
    assert depth_effect(A) == (0, 0)
    assert depth_effect(once(A)) == (0, 0)
    assert depth_effect(somewhere(A)) == (0, 0)
    assert depth_effect(bottom_up(A)) == (0, 0)
    assert depth_effect(seq(Rule(UP), Rule(DOWNS))) == (1, 0)
    assert depth_effect(Choice(Rule(DOWNS), A)) is None  # nets differ
    assert depth_effect(Rec("x", Seq(Rule(DOWNS), Var("x")))) is None


def test_check_plan_drops_total_tails():
    body = bottom_up(A)
    normalise = repeat(body)
    check = split(normalise)[-1][0]
    assert check == Check(Seq(body, normalise))
    assert check_plan(check) == (body, True)
    assert check_plan(Check(seq(Rule(UP), A))) == (seq(Rule(UP), A), False)


def test_a_focus_local_check_is_memoised_per_subterm():
    term = parse("a^2*a^2")
    check = Check(bottom_up(Rule(DEC)))
    root = initial(term, check)
    budget = Budget()
    for path in ((0,), (1,)):
        assert step(State(root.env, focus_at(root.focus, path), check), budget) == []
    inner = check_plan(check)[0]
    subterms = [key[1] for key in budget.check_cache if key[2] == inner]
    # one entry for a^2, shared by both positions; the search adds the
    # per-child question of bottom_up at a^2's child under the same key
    assert subterms.count(parse("a^2")) == 1
    assert set(subterms) == {parse("a^2"), parse("a")}


def test_x_then_up_is_answered_per_child_only_below_the_root():
    # Dec runs at both foci, but Up comes back only from the child
    s = Seq(Rule(DEC), Rule(UP))
    root = initial(parse("(a^2)^3"), s)
    child = State(root.env, focus_at(root.focus, (0,)), s)
    budget = Budget()
    assert not _has_end_state(root, budget)
    assert _has_end_state(child, budget)
    assert list(budget.check_cache.items()) == [((root.env, parse("a^2"), Rule(DEC)), False)]


def test_a_check_that_reads_above_the_focus_is_keyed_on_its_position():
    term = parse("a*1/a")
    check = Check(Rule(RIGHT))
    root = initial(term, check)
    left_factor = focus_at(root.focus, (0,))
    under_recip = focus_at(root.focus, (1, 0))
    assert left_factor.focus == under_recip.focus
    budget = Budget()
    assert step(State(root.env, left_factor, check), budget) == []
    assert len(step(State(root.env, under_recip, check), budget)) == 1


# ---------------------------------------------------------------------------
# minor sentences and completions

def test_minor_sentences_of_a_finished_state():
    st = initial(parse("a"), SUCCEED)
    assert minor_sentences(st) == (((), st),)


def test_minor_sentences_requires_minor_moves():
    st = initial(parse("a^3*a^4"), A)
    assert minor_sentences(st) == ()
    assert not has_minor_completion(st)


def test_minor_sentences_walks_navigation_to_the_end():
    st = initial(parse("a"), seq(Rule(DOWNS), Rule(UP)))
    # "a" has no children, so Down cannot fire
    assert minor_sentences(st) == ()
    st2 = initial(parse("a^2"), seq(Rule(DOWNS), Rule(UP)))
    sents = minor_sentences(st2)
    assert len(sents) == 1
    names, end = sents[0]
    assert names == ("Down", "Up")
    assert unfocus(end.focus) == parse("a^2")
    assert has_minor_completion(st2)


@settings(max_examples=200, deadline=None)
@given(toy_terms(), toy_strategies())
def test_has_minor_completion_is_some_minor_sentence(term, s):
    st = initial(term, s)
    try:
        sentences = minor_sentences(st)
    except (BudgetExceededError, LeftRecursionError):
        return
    budget = Budget()
    assert has_minor_completion(st, budget) == bool(sentences)
    if nullable(s):
        assert budget.used == 0  # a finished state is answered without a step


@settings(max_examples=300, deadline=None)
@given(toy_terms(), toy_strategies(NAV_ATOMS), hst.data())
def test_checks_and_minor_walks_agree_with_a_plain_search(term, s, data):
    # the engine memoises per-child questions and prunes trailing walks;
    # the plain search keys each check on its whole state and walks all
    root = initial(term, s)
    st = State(root.env, focus_at(root.focus, data.draw(hst.sampled_from(positions(term)))), s)
    try:
        expected = (plain_has_end_state(st, Budget(20_000)),
                    plain_minor_sentences(st, Budget(20_000)))
    except (BudgetExceededError, LeftRecursionError):
        return
    assert _has_end_state(st, Budget(20_000)) == expected[0]
    assert minor_sentences(st, Budget(20_000)) == expected[1]


def test_minor_sentences_of_a_minor_loop_that_never_finishes_are_empty():
    # once(SUCCEED) completes without changing the term and its exit check
    # always fails, so every path comes back to the start state
    st = initial(parse("a^2"), repeat(once(SUCCEED)))
    budget = Budget()
    assert minor_sentences(st, budget) == ()
    assert budget.used == 4


def test_minor_sentences_find_the_exit_of_a_minor_loop():
    # shuttling down and up returns to the start state; Up leaves the loop
    loop = Rec("q", Choice(seq(Rule(DOWNS), Rule(UP), Var("q")), Rule(UP)))
    root = initial(parse("(a^2)^3"), loop)
    st = State(root.env, focus_at(root.focus, (0,)), loop)
    assert minor_sentences(st) == ((("Up",), State(root.env, root.focus, SUCCEED)),)
    shuttle = Rec("x", Seq(Rule(DOWNS), Seq(Rule(UP), Var("x"))))
    assert minor_sentences(initial(parse("a^2"), shuttle)) == ()


def test_trailing_minor_diamonds_are_walked_once_per_state():
    # after the major, twelve two-way minor choices that meet again: 4,096
    # minor paths, 25 distinct states (3k + 2 transitions with the check)
    diamond = Choice(seq(Rule(enter_rule("l")), Rule(leave_rule("l"))), Check(FAIL))
    st = initial(parse("a^2*a^3"), seq(A, *[diamond] * 12))
    budget = Budget()
    [(rule, end, trace)] = big_step_traced(st, budget)
    assert rule is ADD_EXP and print_expr(unfocus(end.focus)) == "a^5"
    assert trace == ("AddExp",) + ("AppCheck",) * 12
    assert budget.used == 38


def test_entering_labels_without_leaving_takes_linear_memory():
    # every state of this minor path is one label deeper than the last; Up
    # never fires at the root, but it gives the strategy a minor-only
    # sentence, so the walk keeps going deeper
    st = initial(parse("a"), Rec("x", Choice(Label("deep", Var("x")), Rule(UP))))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            minor_sentences(st, Budget(2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 3.5 MB with a shared-tail label stack, 19 MB with copied tuples
    assert peak < 8 * 2**20


def test_big_step_minor_closure_takes_linear_memory():
    # the minor closure of this state is one long path of label entries
    st = initial(parse("a"), Rec("x", Label("deep", Var("x"))))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            big_step_traced(st, Budget(3000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a stored prefix per closure state grows with the square of the closure
    assert peak < 8 * 2**20


def test_minor_sentences_follows_a_long_loop_free_path():
    # 20 descents and 20 ascents: no state repeats, so only the budget bounds it
    st = initial(parse("(" * 20 + "a" + ")^2" * 20), seq(*[Rule(DOWNS)] * 20, *[Rule(UP)] * 20))
    sents = minor_sentences(st)
    assert len(sents) == 1
    names, end = sents[0]
    assert names == ("Down",) * 20 + ("Up",) * 20
    assert end.focus == st.focus


# ---------------------------------------------------------------------------
# big step and run

def test_big_step_crosses_minor_prefix_major_and_trailing_minors():
    # the redex sits one level down, so the step is Down, MulExp, then the
    # trailing Up that completes the strategy
    st = initial(parse("(a^3)^2*b"), once(M))
    out = big_step_traced(st)
    assert len(out) == 1
    rule, end, trace = out[0]
    assert rule is MUL_EXP
    assert print_expr(unfocus(end.focus)) == "a^6*b"
    assert trace == ("Down", "MulExp", "Up")
    assert nullable(end.remaining)


def test_big_step_keeps_shortest_trace_per_end_state():
    # both children of the product match Dec; going left or right first gives
    # the same multiset of one-major results, each with its own trace
    st = initial(parse("a^2*a^3"), once(Rule(DEC)))
    results = {(r.name, print_expr(unfocus(end.focus))): trace
               for r, end, trace in big_step_traced(st)}
    assert set(results) == {("Dec", "a^1*a^3"), ("Dec", "a^2*a^2")}
    for trace in results.values():
        assert trace == ("Down", "Dec", "Up")


def test_run_exhausts_repeat():
    st = initial(parse("(a^3*a^4)^2"), repeat(bottom_up(choice(A, M, D))))
    ends = run(st)
    assert [print_expr(unfocus(e.focus)) for e in ends] == ["a^14"]
    assert ends[0].remaining == SUCCEED


def test_run_of_fail_and_of_unfireable_rule():
    st = initial(parse("a"), FAIL)
    assert run(st) == ()
    st2 = initial(parse("a"), A)
    assert run(st2) == ()


def test_run_of_repeat_fail_is_the_start_itself():
    term = parse("a^2")
    st = initial(term, repeat(FAIL))
    ends = run(st)
    assert len(ends) == 1
    assert unfocus(ends[0].focus) == term


def test_run_collects_every_alternative():
    st = initial(parse("(a^2)^3"), choice(M, Rule(DEC)))
    ends = {print_expr(unfocus(e.focus)) for e in run(st)}
    assert ends == {"a^6", "(a^2)^2"}


def test_run_is_sorted_and_deterministic():
    st = initial(parse("(a^2)^3"), choice(M, Rule(DEC)))
    first = run(st)
    second = run(st)
    assert first == second
    assert list(first) == sorted(first, key=repr)


# ---------------------------------------------------------------------------
# recognize

def test_recognize_follows_major_names_in_order():
    s = repeat(bottom_up(choice(A, M, D)))
    st = initial(parse("(a^3*a^4)^2"), SUCCEED)
    assert recognize(s, ["AddExp", "MulExp"], st)
    assert recognize(s, [ADD_EXP, MUL_EXP], st)
    assert not recognize(s, ["MulExp", "AddExp"], st)
    assert not recognize(s, ["AddExp"], st)  # strategy insists on finishing
    assert not recognize(s, [], st)


def test_recognize_ignores_the_remaining_field_of_the_probe_state():
    st = initial(parse("a^3*a^4"), FAIL)
    assert recognize(A, ["AddExp"], st)
    assert recognize(somewhere(A), ["AddExp"], st)


# ---------------------------------------------------------------------------
# bounded language

def test_language_of_atoms_and_units():
    assert language_upto(SUCCEED) == frozenset({()})
    assert language_upto(FAIL) == frozenset()
    assert language_upto(A) == frozenset({(A,)})
    assert language_upto(A, max_len=0) == frozenset()


def test_language_of_seq_choice_label():
    assert language_upto(Seq(A, M)) == frozenset({(A, M)})
    assert language_upto(Choice(A, M)) == frozenset({(A,), (M,)})
    lab = language_upto(Label("l", A), max_len=3)
    assert len(lab) == 1
    sentence = next(iter(lab))
    assert [atom.rule.name for atom in sentence] == ["Enter(l)", "AddExp", "Leave(l)"]
    # the bracketing atoms count toward the length bound
    assert language_upto(Label("l", A), max_len=2) == frozenset()


def test_language_of_repeat_is_truncated_by_len_and_unroll():
    rep = repeat(A)
    # each sentence is some rounds of AddExp closed by one exit check; the
    # last permitted unfolding spends itself on the check
    sentences = language_upto(rep, max_len=8, max_unroll=4)
    majors = {majors_of(s) for s in sentences}
    assert majors == {(), ("AddExp",), ("AddExp",) * 2, ("AddExp",) * 3}
    assert max(len(s) for s in sentences) <= 8
    # tightening either bound shrinks the set
    assert len(language_upto(rep, max_len=2, max_unroll=4)) == 2
    assert len(language_upto(rep, max_len=8, max_unroll=1)) == 1


def test_language_majors_of_power_normalization():
    from strategem.exercise import write_as_power_of

    sentences = language_upto(write_as_power_of(), max_len=12, max_unroll=3)
    majors = {majors_of(s) for s in sentences}
    assert ("AddExp", "MulExp") in majors
    # label brackets enclose every sentence
    for s in sentences:
        assert s[0].rule.name == "Enter(powers)"
        assert s[-1].rule.name == "Leave(powers)"


def test_language_upto_rejects_negative_bounds_and_charges_nodes():
    with pytest.raises(ValueError):
        language_upto(A, max_len=-1)
    with pytest.raises(BudgetExceededError):
        language_upto(repeat(choice(A, M, D)), max_len=32, max_unroll=8,
                      node_budget=50)


# ---------------------------------------------------------------------------
# algebraic laws, checked over the toy corpus

@settings(max_examples=60, deadline=None)
@given(toy_terms(), toy_strategies())
def test_unit_laws_for_run(term, s):
    st = initial(term, s)
    try:
        base = run(st)
    except BudgetExceededError:
        return
    assert run(initial(term, Seq(SUCCEED, s))) == base
    assert run(initial(term, Choice(FAIL, s))) == base


@settings(max_examples=60, deadline=None)
@given(toy_terms(), toy_strategies())
def test_run_is_a_function_of_the_state(term, s):
    st = initial(term, s)
    try:
        first = run(st)
    except BudgetExceededError:
        return
    assert run(st) == first


@settings(max_examples=60, deadline=None)
@given(toy_strategies())
def test_split_atoms_are_firsts_of_the_language(s):
    try:
        pairs = split(s)
    except LeftRecursionError:
        return
    try:
        lang = language_upto(s, max_len=4, max_unroll=4)
    except BudgetExceededError:
        return
    firsts = {sentence[0] for sentence in lang if sentence}
    atoms = {atom for atom, _ in pairs}
    # every bounded sentence starts with a split atom; the converse can fail
    # only because deeper sentences were cut off by the bound
    assert firsts <= atoms


@settings(max_examples=200, deadline=None)
@given(toy_strategies())
def test_nullable_is_the_empty_sentence_in_the_language(s):
    try:
        lang = language_upto(s, max_len=0)
    except BudgetExceededError:
        return
    assert nullable(s) == (() in lang)


@settings(max_examples=300, deadline=None)
@given(toy_terms(), toy_strategies(), hst.data())
def test_a_total_strategy_reaches_an_end_state_from_any_focus(term, s, data):
    if not total(s):
        return
    root = initial(term, s)
    path = data.draw(hst.sampled_from(positions(term)))
    try:
        assert _has_end_state(State(root.env, focus_at(root.focus, path), s), Budget())
    except (BudgetExceededError, LeftRecursionError):
        return


@settings(max_examples=200, deadline=None)
@given(toy_terms(), toy_strategies(), hst.data())
def test_a_focus_local_check_depends_only_on_the_subterm(term, s, data):
    check = Check(s)
    if not check_plan(check)[1]:
        return
    root = initial(term, check)
    here = focus_at(root.focus, data.draw(hst.sampled_from(positions(term))))
    try:
        at_position = step(State(root.env, here, check), Budget())
        at_root = step(initial(here.focus, check), Budget())
    except (BudgetExceededError, LeftRecursionError):
        return
    assert bool(at_position) == bool(at_root)
