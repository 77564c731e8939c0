import hashlib
import random

from posetoperad.catalog import (_certificate, _extensions, canonical_key,
                                 is_series_parallel, iso_classes)
from posetoperad.counting import d_vector
from posetoperad.poset import (_bits, antichain, chain, ordinal_sum,
                               poset_from_masks)
from posetoperad.series import zigzag_poset

from oracles import (has_induced_zigzag, labeled_masks, poset_from_relation,
                     refined_search_key)

LABELED_COUNTS = [1, 1, 3, 19, 219, 4231]
ISO_COUNTS = [1, 1, 2, 5, 16, 63, 318]


def test_labeled_counts():
    for n, expect in enumerate(LABELED_COUNTS):
        assert sum(1 for _ in labeled_masks(n)) == expect


def test_iso_counts():
    for n, expect in enumerate(ISO_COUNTS):
        assert len(iso_classes(n)) == expect


def test_generated_posets_are_closed():
    for P in map(poset_from_masks, labeled_masks(4)):
        again = poset_from_relation(P.elements, P.relation)
        # closure is idempotent on generated relations
        from posetoperad.poset import construct_poset
        assert construct_poset(P.elements, list(P.relation)) == again


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(7)
    for P in iso_classes(5)[::5]:
        n = len(P)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = poset_from_relation(
            [str(perm[i] + 1) for i in range(n)],
            {(str(perm[a] + 1), str(perm[b] + 1))
             for a, b in P.index_pairs()})
        # rebuild with sorted element order so slot order is canonical
        relabeled = poset_from_relation(sorted(relabeled.elements, key=int),
                                        relabeled.relation)
        assert canonical_key(relabeled) == canonical_key(P)


def test_canonical_key_separates_classes():
    keys = {canonical_key(P) for P in iso_classes(5)}
    assert len(keys) == ISO_COUNTS[5]


def test_catalogue_pinned_by_hash():
    # labels, masks and canonical key of every class of up to 6 elements,
    # in order: pins the representatives, their order and the key format
    h = hashlib.sha256()
    for n in range(7):
        for P in iso_classes(n):
            h.update(repr((P.elements, P._below, canonical_key(P))).encode())
    assert h.hexdigest() == (
        "e9f74f119dbd49c173c70ab2f6c74c328a22bc640f669a9f4945520345690540")


def test_catalogue_of_seven_pinned_by_hash():
    # the same for up to 7 elements, at the value the catalogue had when
    # every extension was keyed by canonical_key
    h = hashlib.sha256()
    for n in range(8):
        for P in iso_classes(n):
            h.update(repr((P.elements, P._below, canonical_key(P))).encode())
    assert h.hexdigest() == (
        "c41bbd730a7477f72c3bdf60bcaae8ae244e4690f07731498ac6fc4442ea8f15")


def test_certificate_and_key_split_every_extension_alike():
    # every one-element extension of the classes of up to 5 elements, in
    # its generated labeling: the certificate and canonical_key make the
    # same classes, and the key is the refined search's
    for n in range(1, 7):
        elements_of = [tuple(_bits(m)) for m in range(1 << n)].__getitem__
        certs, keys = {}, {}
        for P in iso_classes(n - 1):
            for below, above in _extensions(P):
                Q = poset_from_masks(below)
                cert, key = _certificate(below, above, elements_of), \
                    canonical_key(Q)
                assert key == refined_search_key(Q), Q
                certs.setdefault(cert, set()).add(key)
                keys.setdefault(key, set()).add(cert)
        assert all(len(v) == 1 for v in certs.values())
        assert all(len(v) == 1 for v in keys.values())
        assert len(keys) == ISO_COUNTS[n]


def test_series_parallel_families():
    assert not is_series_parallel(zigzag_poset())
    assert is_series_parallel(chain(5))
    assert is_series_parallel(antichain(5))
    assert is_series_parallel(ordinal_sum(chain(1), antichain(3)))


def test_exactly_one_non_sp_class_on_four_points():
    non_sp = [P for P in iso_classes(4) if not is_series_parallel(P)]
    assert len(non_sp) == 1
    assert d_vector(non_sp[0]).d == (0, 1, 5, 5)


def test_series_parallel_matches_induced_zigzag_oracle(classes_upto_6):
    for reps in classes_upto_6.values():
        for P in reps:
            assert is_series_parallel(P) == (not has_induced_zigzag(P))


def test_series_parallel_flags_unchanged_by_quotient_nodes():
    # a "Q" node is not series-parallel: the flags of every class of up to
    # 6 elements are pinned by their hash; 239 of the 406 classes are
    flags = "".join("1" if is_series_parallel(P) else "0"
                    for n in range(7) for P in iso_classes(n))
    assert flags.count("1") == 239
    assert hashlib.sha256(flags.encode()).hexdigest() == (
        "13eb355dd7be1a1a4b8881144398a2e0d64341bf6284e206e7ac8e032efa6ebc")
