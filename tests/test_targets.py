import hashlib

import pytest
from hypothesis import assume, example, given, strategies as st

from knotsurgery import (
    ClosureCapExceededError,
    alternating,
    cli,
    close_target,
    cyclic,
    dihedral,
    escalation_suite,
    standard_suite,
    symmetric,
    targets,
)
from knotsurgery.targets import (
    ProductMemo,
    identity_perm,
    parse_cycles,
    suite_from_json,
)

from conftest import compose, cycle_string, invert_perm, naive_closure


def test_closure_order_2():
    t = close_target("swap", [(1, 0)], degree=2)
    assert t.order == 2


def test_closure_s3():
    t = close_target("S3", [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], degree=3)
    assert t.order == 6


def test_closure_a5_standard_pair():
    t = close_target(
        "A5", [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)], degree=5
    )
    assert t.order == 60


def test_cap_exceeded():
    with pytest.raises(ClosureCapExceededError):
        close_target(
            "S5", [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)], degree=5, cap=50
        )


def test_cap_boundary_is_the_order():
    gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    assert close_target("S4", gens, degree=4, cap=24).order == 24
    with pytest.raises(ClosureCapExceededError, match="'S4' exceeded cap 23"):
        close_target("S4", gens, degree=4, cap=23)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        close_target("bad", [(0, 0)], degree=2)


def test_cycle_parsing_round_trip():
    for text, degree in [("(1 2 3)(4 5)", 6), ("()", 4), ("(2 4)", 4)]:
        perm = parse_cycles(text, degree)
        assert parse_cycles(cycle_string(perm), degree) == perm
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 3)


def test_mult_and_inverse_tables():
    t = symmetric(4)
    index = {p: i for i, p in enumerate(t.elements)}
    assert t.elements[0] == identity_perm(4)
    for i in range(0, t.order, 5):
        for j in range(0, t.order, 7):
            assert t.mult[i][j] == index[compose(t.elements[i], t.elements[j])]
        assert t.mult[i][t.inverse[i]] == 0
        assert t.elements[t.inverse[i]] == invert_perm(t.elements[i])


TABLE_CASES = [
    "C2", "C3", "C4", "C5", "C6", "S3", "S4", "S5", "A4", "A5", "D4", "D5",
    "PSL2_7", "A6", "trivial", "order2",
]


@pytest.mark.parametrize("name", TABLE_CASES)
def test_every_table_entry_is_the_composition(name):
    if name == "trivial":
        t = close_target("trivial", [], degree=3)
    elif name == "order2":
        t = close_target("swap", [(1, 0, 2)], degree=3)
    else:
        t = {t.name: t for t in standard_suite() + escalation_suite()}[name]
    index = {p: i for i, p in enumerate(t.elements)}
    assert len(index) == t.order
    for i, a in enumerate(t.elements):
        assert t.mult[i] == tuple(index[compose(a, b)] for b in t.elements)
        assert t.inverse[i] == index[invert_perm(a)]


generator_sets = st.integers(min_value=1, max_value=6).flatmap(
    lambda degree: st.tuples(
        st.just(degree), st.lists(st.permutations(range(degree)), max_size=3)
    )
)


@given(generator_sets)
@example((1, [(0,), (0,)]))
@example((3, [(1, 0, 2), (0, 1, 2), (1, 0, 2)]))
def test_closure_matches_a_naive_breadth_first_search(case):
    degree, gens = case
    gens = [tuple(g) for g in gens]
    expected = naive_closure(gens, degree)
    index = {p: i for i, p in enumerate(expected)}
    for memo in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            # as test_product_memo.close_as does, to force memo rows
            if memo:
                mp.setattr(targets, "FULL_TABLE_MAX_ORDER", 1)
            t = close_target("random", gens, degree=degree)
        assert isinstance(t.mult, ProductMemo) == (memo and t.order > 1)
        assert list(t.elements) == expected
        assert t.generators == tuple(gens)
        for i, a in enumerate(t.elements):
            row = t.mult[i]
            assert [row[j] for j in range(t.order)] == [index[compose(a, b)] for b in expected]
            assert t.inverse[i] == index[invert_perm(a)]


def test_builders_have_expected_orders():
    assert cyclic(6).order == 6
    assert symmetric(5).order == 120
    assert alternating(4).order == 12
    assert alternating(6).order == 360
    assert dihedral(4).order == 8
    assert dihedral(5).order == 10


def test_standard_suite_contents():
    suite = standard_suite()
    names = [t.name for t in suite]
    assert names == ["C2", "C3", "C4", "C5", "C6", "S3", "S4", "S5", "A4", "A5", "D4", "D5"]
    orders = {t.name: t.order for t in suite}
    assert orders["S5"] == 120 and orders["A5"] == 60 and orders["D5"] == 10
    assert max(orders.values()) <= 120


def test_escalation_suite_orders():
    expected = {
        "PSL2_7": 168,
        "A6": 360,
        "PSL2_8": 504,
        "PSL2_11": 660,
        "S6": 720,
        "PSL2_13": 1092,
        "PSL2_17": 2448,
        "PSL2_19": 3420,
    }
    suite = escalation_suite()
    assert [t.name for t in suite] == list(expected)
    for target in suite:
        assert target.order == expected[target.name]
        assert "," not in target.name  # names must stay CSV-safe


def test_extended_suite_is_standard_plus_escalation():
    suite = cli.read_suite("extended").close()
    assert suite == standard_suite() + escalation_suite()
    assert len(suite) == len(standard_suite()) + len(escalation_suite())
    assert [t.name for t in suite[: len(standard_suite())]] == [
        t.name for t in standard_suite()
    ]


def test_suite_budget_used_up_exactly(monkeypatch):
    # with a budget of 6^2, S3 uses it all; a trivial group still closes
    # (order 1), and the next nontrivial entry is past the cap
    monkeypatch.setattr(targets, "DEFAULT_CLOSURE_CAP", 6)
    s3 = {"name": "S3", "degree": 3, "generators": ["(1 2)", "(1 2 3)"]}
    trivial = {"name": "1", "degree": 3, "generators": []}
    c2 = {"name": "C2", "degree": 2, "generators": ["(1 2)"]}
    assert [t.order for t in suite_from_json([s3, trivial, dict(trivial, name="1'")])] == [6, 1, 1]
    with pytest.raises(ClosureCapExceededError, match="'C2' exceeded cap 0"):
        suite_from_json([s3, trivial, c2])


def test_suite_json_round_trip():
    suite = (cyclic(3), dihedral(4))
    data = [
        {"name": "C3", "degree": 3, "generators": ["(1 2 3)"]},
        {"name": "D4", "degree": 4, "generators": ["(1 2 3 4)", "(2 4)"]},
    ]
    assert [[cycle_string(g) for g in t.generators] for t in suite] == [
        entry["generators"] for entry in data
    ]
    rebuilt = suite_from_json(data)
    assert [t.name for t in rebuilt] == ["C3", "D4"]
    assert [t.order for t in rebuilt] == [3, 8]
    assert [t.elements for t in rebuilt] == [t.elements for t in suite]


def test_extended_names_close_no_escalation_target():
    standard_suite.cache_clear()
    escalation_suite.cache_clear()
    standard = cli.read_suite("standard").names
    extended = cli.read_suite("extended").names
    assert standard_suite.cache_info().currsize == 0
    assert escalation_suite.cache_info().currsize == 0
    assert standard == tuple(t.name for t in standard_suite())
    assert extended == tuple(t.name for t in standard_suite() + escalation_suite())


@pytest.mark.parametrize("q", [2, 9, 1])
def test_psl2_refuses_q_that_is_not_an_odd_prime(q):
    with pytest.raises(ValueError, match="odd prime"):
        targets.psl2(q)


CLASS_NUMBERS = {
    "S4": 5, "A5": 5, "S5": 7, "PSL2_7": 6, "A6": 7, "PSL2_8": 9,
    "PSL2_11": 8, "S6": 11, "PSL2_13": 9, "PSL2_17": 11, "PSL2_19": 12,
}


@pytest.mark.parametrize("name", sorted(CLASS_NUMBERS))
def test_conjugacy_classes_partition_the_group(name):
    target = {t.name: t for t in standard_suite() + escalation_suite()}[name]
    mult, inverse = target.mult, target.inverse
    classes = target.conjugacy_classes
    assert len(classes) == CLASS_NUMBERS[name]
    class_of, class_members = target.class_table
    covered: set[int] = set()
    for k, (rep, size) in enumerate(classes):
        # the class by conjugating with every element, not only the generators
        members = {mult[mult[h][rep]][inverse[h]] for h in range(target.order)}
        assert len(members) == size
        assert class_members[k] == tuple(sorted(members))
        assert {class_of[x] for x in members} == {k}
        assert target.order % size == 0
        assert not members & covered
        covered |= members
    assert covered == set(range(target.order))
    assert sum(size for _, size in classes) == target.order
    if name.startswith("PSL2_") and int(name[5:]) % 2:
        assert len(classes) == (int(name[5:]) + 5) // 2


def test_conjugacy_classes_of_abelian_and_trivial_groups():
    assert cyclic(6).conjugacy_classes == tuple((i, 1) for i in range(6))
    trivial = close_target("trivial", [], degree=3)
    assert trivial.conjugacy_classes == ((0, 1),)


def brute_centralizer(target, c: int) -> set[int]:
    """C_H(c) by composing permutations, not through the tables."""
    a = target.elements[c]
    points = range(target.degree)
    return {
        i for i, z in enumerate(target.elements) if all(z[a[x]] == a[z[x]] for x in points)
    }


def brute_orbits(target, centralizer: set[int], members) -> list[tuple[int, int]]:
    """(least member, size) per C_H(c)-orbit on members, by composing permutations."""
    index = {p: i for i, p in enumerate(target.elements)}
    perms = [(target.elements[z], invert_perm(target.elements[z])) for z in centralizer]
    covered: set[int] = set()
    orbits = []
    for rep in sorted(members):
        if rep in covered:
            continue
        x = target.elements[rep]
        # z x z^-1 in one pass: compose(compose(z, x), z_inv)
        orbit = {index[tuple([z[x[w]] for w in z_inv])] for z, z_inv in perms}
        covered |= orbit
        orbits.append((min(orbit), len(orbit)))
    return orbits


@pytest.mark.parametrize("name", [t.name for t in standard_suite() + escalation_suite()])
def test_centralizer_orbits_partition_the_group(name):
    target = {t.name: t for t in standard_suite() + escalation_suite()}[name]
    class_of, members = target.class_table
    for j, (c, _) in enumerate(target.conjugacy_classes):
        centralizer = brute_centralizer(target, c)
        if len(members[j]) > 1:
            assert set(target._centralizer(j)) == centralizer
        orbits = target.centralizer_orbits(j)
        assert list(orbits) == brute_orbits(target, centralizer, range(target.order))
        assert sum(size for _, size in orbits) == target.order
        if j == 0:
            assert orbits == target.conjugacy_classes
        # restricted to one class, the orbits are those whose members lie in it
        for k in range(len(target.conjugacy_classes)):
            assert target.centralizer_orbits(j, k) == tuple(
                (rep, size) for rep, size in orbits if class_of[rep] == k
            )


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda degree: st.lists(st.permutations(range(degree)), min_size=1, max_size=3)
    ),
    st.integers(min_value=0),
)
def test_the_class_pass_gives_conjugators_and_centralizers_of_random_groups(generators, pick):
    degree = len(generators[0])
    try:  # A7 and S7 would take most of the test's time
        target = close_target("random", [tuple(g) for g in generators], degree=degree, cap=720)
    except ClosureCapExceededError:
        assume(False)
    class_of, members, conjugator = target._classes
    for x, perm in enumerate(target.elements):
        # t_x conjugates its class's representative to x
        t = target.elements[conjugator[x]]
        rep = target.elements[members[class_of[x]][0]]
        assert compose(compose(t, rep), invert_perm(t)) == perm
    for j, m in enumerate(members):
        assert set(target._centralizer(j)) == brute_centralizer(target, m[0])
    # the orbits of a drawn class j's centralizer on a drawn class k
    j = pick % len(members)
    k = (pick // len(members)) % len(members)
    centralizer = brute_centralizer(target, members[j][0])
    assert list(target.centralizer_orbits(j, k)) == brute_orbits(target, centralizer, members[k])
    if target.order <= 120:
        orbits = brute_orbits(target, centralizer, range(target.order))
        assert list(target.centralizer_orbits(j)) == orbits


def perm_power(perm: tuple, n: int) -> tuple:
    """perm^n by repeated composition, for any integer n."""
    base = perm if n >= 0 else invert_perm(perm)
    out = tuple(range(len(perm)))
    for _ in range(abs(n)):
        out = compose(out, base)
    return out


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda degree: st.lists(st.permutations(range(degree)), min_size=1, max_size=3)
    ),
    st.integers(min_value=0),
)
@example([(1, 0, 3, 2), (2, 3, 0, 1)], 5)  # V4
@example([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)], 11)  # C2 x C4
def test_powers_conjugators_and_commutativity_of_random_groups(generators, pick):
    degree = len(generators[0])
    try:
        target = close_target("random", [tuple(g) for g in generators], degree=degree, cap=720)
    except ClosureCapExceededError:
        assume(False)
    elements, order = target.elements, target.order
    gens = [tuple(g) for g in generators]
    assert target.is_abelian == all(compose(a, b) == compose(b, a) for a in gens for b in gens)
    if order <= 120:
        assert target.is_abelian == all(
            compose(a, b) == compose(b, a) for a in elements for b in elements
        )
    x = pick % order
    for n in (-order - 1, -7, -2, -1, 0, 1, 2, 3, 7, order, 2 * order + 1):
        assert elements[target.power(x, n)] == perm_power(elements[x], n)
    # every g with g x g^-1 = y, for y a drawn conjugate of x and a drawn element
    z = elements[(pick // order) % order]
    conjugate = target.elements.index(compose(compose(z, elements[x]), invert_perm(z)))
    for y in (conjugate, (pick // order**2) % order):
        brute = [
            g for g, perm in enumerate(elements)
            if compose(compose(perm, elements[x]), invert_perm(perm)) == elements[y]
        ]
        assert sorted(target.conjugators(x, y)) == brute


def test_the_bundled_abelian_targets_are_the_cyclic_ones():
    abelian = [t.name for t in standard_suite() + escalation_suite() if t.is_abelian]
    assert abelian == ["C2", "C3", "C4", "C5", "C6"]
    assert close_target("trivial", [], degree=3).is_abelian


# sha256 of each bundled target's elements, inverse table and, for a full
# table, its rows, as ``target_digest`` writes them.  Element indices fix the
# class representatives, the centralizer orbits and the peripheral-table keys,
# so no closure may reorder the elements.
BUNDLED_DIGESTS = {
    "C2": "abfbd9ab8dae67102f5458bb22e2b6d88dcd5ce0f0ba74df09312a20dacac89c",
    "C3": "968661ed0fd8e20c587f6063d9dea92fb6089d62011df61db1ada28c3c9cf376",
    "C4": "cc84210fc5054f2326f5b9e706b40a3d0167de095ef494e1afbac33a371a2439",
    "C5": "8797ad5bc1ec7433c932f00104cf78b219353d0b3ad5f3fb74680d3ca335647b",
    "C6": "03993d0aadf4438e8c5cc060ea03e28f55151b13566f659022c1a78282c4d9d2",
    "S3": "47b8f07f6f62943025440f7f8cbfc209656e62f2df75d20a5777baaa1dc487e5",
    "S4": "5da5d42f523d480839c4119d4921413d8bed547739612e3da6636cdfc72109ea",
    "S5": "d54fad22da143c8958f1031058d0b18ac0a9a4b525f63158ae62f8eaf5f1b6a4",
    "A4": "9990893f8c4c2dac1f38cb1ac04f3dd9285381e40ba63820340528e5bd219bd3",
    "A5": "d5c8a791b5c1ff19970a80016c1bb1c9499dda772fbb941840147b87d9994c22",
    "D4": "d89b2cefa652c3b7738151604a2d2a2d735c5b65bbdcbf361a8223e22d773fb4",
    "D5": "09cfc2fd12ad20d80117cce0f712f780d07316d56cb0e9cf1af53a9e9c5d7c49",
    "PSL2_7": "0e595e1f83ecfe637f288926e89c05a1e8f8f7c20a225106bfea24356a9f4735",
    "A6": "664097e2a1d64a34933cf0c7d4f6969af5066bbc02f9df1de2e2519814f08893",
    "PSL2_8": "f05974f49d95e0b171f516ae31873b623ba7133a0dbba04291aab6d29832388c",
    "PSL2_11": "e0e00256db03811bb0ba95e8fee695ed36ac3e33fac4a83c8919c9a3490529dd",
    "S6": "8dafc420b8b37f612a791068eb657d394faef56dfe177560b6edde0c81bb9c79",
    "PSL2_13": "042c03e48d87287c139e101c2d9d0a1e53d3146ee4669f0c283daab580b0365e",
    "PSL2_17": "5a8b94880ba61e3f7f078bd3fdc97dc62c1a9426774eb0023c901302019c4ad5",
    "PSL2_19": "457b8f9d002bd1c8f51f585a7154bdb854b6b917e7c03d4d70400069d057cc88",
}


def target_digest(target) -> str:
    digest = hashlib.sha256()
    digest.update(repr(target.elements).encode())
    digest.update(repr(target.inverse).encode())
    if isinstance(target.mult, tuple):
        digest.update(repr(target.mult).encode())
    return digest.hexdigest()


def test_bundled_targets_keep_their_elements_inverses_and_tables():
    suite = standard_suite() + escalation_suite()
    assert {t.name: target_digest(t) for t in suite} == BUNDLED_DIGESTS


@pytest.mark.parametrize("name", ["PSL2_17", "PSL2_19"])
def test_every_inverse_of_the_largest_targets_is_the_inverse_permutation(name):
    target = {t.name: t for t in escalation_suite()}[name]
    index = {p: i for i, p in enumerate(target.elements)}
    assert list(target.inverse) == [index[invert_perm(a)] for a in target.elements]
