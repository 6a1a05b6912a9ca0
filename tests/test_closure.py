import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from ctseq import closure, engines, linrep, reduced
from ctseq.classify import reachable_states, zero_witness
from ctseq.dfao import build_forward, build_reverse
from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.linrep import LinRep
from ctseq.morphism import MorphicStream
from ctseq.primepower import build_reduction
from ctseq.reduced import Module
from ctseq.textio import parse_poly, preset


@st.composite
def _closure_cases(draw):
    r = draw(st.integers(1, 3))
    span = (2, 1, 1)[r - 1]
    exps = st.tuples(*[st.integers(-span, span)] * r)
    coeffs = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    P = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    Q = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, max_size=3)))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # deg P~ can reach p^(a-1) deg P; keep the window near 125 entries
    bound = lambda a: (2 * p ** (a - 1) * max(P.degree(), 1) + 1) ** r
    a = draw(st.sampled_from([a for a in (1, 2, 3) if a == 1 or bound(a) <= 130]))
    cap = draw(st.one_of(st.just(3000), st.sampled_from((1, 2, 5, 40))))
    return P, Q, p, a, cap


def _outcome(run):
    """What a closure returns, or the message and states of its cap error."""
    try:
        return run()
    except ResourceLimitError as exc:
        return ("over cap", str(exc), exc.states)


def _closures(P, Q, p, a, cap):
    red = build_reduction(P, Q, p, a)
    rep, q0 = red.tilde_rep, red.reduced_codings[0][0]

    def reach():
        got = reachable_states(rep, cap)
        return (got.states, got.witness_n0, got.zero_ct_reachable,
                got.nonzero_ct_off_origin)

    def machine(build):
        d = build()
        return (d.state_vectors, d.transitions, d.outputs, d.state_labels)

    return {
        "reach": _outcome(reach),
        "forward": _outcome(lambda: machine(lambda: build_forward(
            red.p_tilde, q0, p, p**a, state_cap=cap, rep=rep))),
        "reverse": _outcome(lambda: machine(lambda: build_reverse(rep, cap))),
    }


def _references(P, Q, p, a, cap):
    red = build_reduction(P, Q, p, a)
    rep, q0 = red.tilde_rep, red.reduced_codings[0][0]

    def reach():
        states, witness, off_origin = ref.reachable_states(rep, cap)
        return states, witness, witness is not None, off_origin

    out = {"reach": _outcome(reach),
           "forward": _outcome(lambda: (None,) + ref.build_forward(rep, q0, cap)),
           "reverse": _outcome(lambda: ref.build_reverse(rep, cap))}
    for name in ("forward", "reverse"):
        # the automaton loops named no state count; the closure names the cap
        if out[name][0] == "over cap":
            out[name] = out[name][:2] + (cap,)
    return out


def _check_closures(case):
    want = _references(*case)
    for sparse in (False, True):
        for packed in (True, False):
            for block in (closure._BLOCK_ENTRIES, (1, 1)):
                with pytest.MonkeyPatch.context() as mp:
                    if sparse:
                        mp.setattr(linrep, "_SPARSE_WINDOW", 0)
                    if not packed:
                        mp.setattr(closure, "_PACK_LIMIT", 0)
                    mp.setattr(closure, "_BLOCK_ENTRIES", block)
                    got = _closures(*case)
                assert got == want, (sparse, packed, block)


_ONE, _X = LaurentPoly.one(1), LaurentPoly(1, {(1,): 1})
# Q = 0 on a window of 51 entries
_ZERO_Q = (LaurentPoly(1, {(0,): -4, (1,): -4}), LaurentPoly.zero(1), 5, 3, 3000)


@settings(max_examples=60, deadline=None)
@given(_closure_cases())
# V(0) recurs (V(1) = V(0)), so nonzero_ct_off_origin holds on V(0) alone
@example((_ONE, _ONE, 2, 1, 3000))
# V(0) never recurs and every later V(n) is zero
@example((_X, _ONE, 2, 1, 3000))
# Q = 0: the forward machine has one state
@example(_ZERO_Q)
def test_closure_matches_fifo_loops(case):
    _check_closures(case)


@settings(max_examples=60, deadline=None)
@given(_closure_cases())
@example(_ZERO_Q)
def test_closure_matches_fifo_loops_in_coordinates(case):
    # every window takes the Howell basis of the reach and forward
    # modules; Q = 0 spans a forward module of rank 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced, "_IDENTITY_WINDOW", 0)
        mp.setattr(reduced, "_FORWARD_WINDOW", 0)
        _check_closures(case)


@settings(max_examples=60, deadline=None)
@given(_closure_cases())
def test_early_stop_witness_matches_fifo_loop(case):
    P, _, p, _, cap = case
    rep = LinRep(P, LaurentPoly.one(P.nvars), p, 1)
    full = _outcome(lambda: ref.reachable_states(rep, 3000))
    assume(full[0] != "over cap")
    states, want, _ = full
    refused = ("over cap", "reachable set exceeds %d states" % cap, cap)
    for sparse in (False, True):
        for packed in (True, False):
            for block in (closure._BLOCK_ENTRIES, (1, 1)):
                with pytest.MonkeyPatch.context() as mp:
                    if sparse:
                        mp.setattr(linrep, "_SPARSE_WINDOW", 0)
                    if not packed:
                        mp.setattr(closure, "_PACK_LIMIT", 0)
                    mp.setattr(closure, "_BLOCK_ENTRIES", block)
                    whole = _outcome(lambda: zero_witness(P, p, 3000))
                    capped = _outcome(lambda: zero_witness(P, p, cap))
                assert whole == want, (sparse, packed, block)
                # a cap may refuse before the first zero, never change it
                assert capped == want or capped == refused, (sparse, packed, block)
                if cap >= len(states):
                    assert capped == want, (sparse, packed, block)


def test_early_stop_returns_witness_under_a_cap_the_closure_passes():
    # the mid-size verdict polynomial closes over 16,807 states at p = 7,
    # but its first zero (n = 2) is interned within the first 7
    P = parse_poly("x^-3+2*x^-1+1+x^2+3*x^3")
    rep = LinRep(P, LaurentPoly.one(1), 7, 1)
    assert zero_witness(P, 7, state_cap=7) == 2
    for full_walk in (lambda: reachable_states(rep, 7),
                      lambda: ref.reachable_states(rep, 7)):
        with pytest.raises(ResourceLimitError, match="exceeds 7 states"):
            full_walk()
    with pytest.raises(ResourceLimitError):
        zero_witness(P, 7, state_cap=6)


@st.composite
def _walk_cases(draw):
    P, Q, p, a, _ = draw(_closure_cases())
    count = draw(st.integers(0, 400))
    cuts = sorted(draw(st.lists(st.integers(0, count), max_size=4)))
    return P, Q, p, a, count, cuts


def _lazy_walks(P, Q, p, a, count, cuts):
    """Engine runs, reduction prefix and letter stream, the stream grown
    once to ``count`` and once through ``cuts``."""
    red = build_reduction(P, Q, p, a)
    whole = MorphicStream(red.tilde_rep).extend(count)
    grown = MorphicStream(red.tilde_rep)
    for n in cuts + [count]:
        grown.extend(n)
    assert grown.letters == whole.letters
    assert np.array_equal(grown.prefix, whole.prefix)
    return {
        "dfao": engines.sequence(P, Q, p, a, count, "dfao", red=red),
        "dfao-reverse": engines.sequence(P, Q, p, a, count, "dfao-reverse", red=red),
        "prefix": red.prefix(count),
        "letters": whole.letters,
        "ids": whole.prefix[:count].tolist(),
    }


def _lazy_references(P, Q, p, a, count):
    red = build_reduction(P, Q, p, a)
    stream = ref.MorphicStream(red.tilde_rep).extend(count)
    # the reference expands whole images, so it may hold a few more letters
    letters = stream.letters[:len(set(stream.prefix[:max(count, 1)]))]
    return {
        "dfao": ref.forward_runs(red, count),
        "dfao-reverse": ref.reverse_runs(red, count),
        "prefix": ref.prefix(red, count),
        "letters": letters,
        "ids": stream.prefix[:count],
    }


def _check_lazy_walks(case):
    want = _lazy_references(*case[:5])
    for sparse in (False, True):
        for packed in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if sparse:
                    mp.setattr(linrep, "_SPARSE_WINDOW", 0)
                if not packed:
                    mp.setattr(closure, "_PACK_LIMIT", 0)
                got = _lazy_walks(*case)
            assert got == want, (sparse, packed)


@settings(max_examples=40, deadline=None)
@given(_walk_cases())
def test_lazy_walks_match_dict_loops(case):
    _check_lazy_walks(case)


@settings(max_examples=40, deadline=None)
@given(_walk_cases())
def test_lazy_walks_match_dict_loops_in_coordinates(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced, "_IDENTITY_WINDOW", 0)
        _check_lazy_walks(case)


def test_witness_index_beyond_int64():
    # a chain e0 -> e0+e1 -> ... -> e0+e9 -> e10 under digit 100 of
    # p = 101, every other digit the identity: the first zero constant
    # entry is at n = 101^10 - 1 (ten digits 100), past int64
    p, width = 101, 11
    step = np.zeros((width, width))
    step[:, 0] = np.eye(width)[0] + np.eye(width)[1]
    for i in range(1, 9):
        step[:, i] = (np.eye(width)[i + 1] - np.eye(width)[1]) % p
    step[:, 9] = (np.eye(width)[10] - np.eye(width)[0] - np.eye(width)[1]) % p
    step[:, 10] = np.eye(width)[10]
    gammas = [np.eye(width)] * (p - 1) + [step]
    rep = SimpleNamespace(p=p, modulus=p, v0=np.eye(width)[0],
                          index_set=SimpleNamespace(constant_index=0),
                          all_gammas=lambda: gammas, gamma=gammas.__getitem__)
    rep.reach_module = lambda: Module(rep)
    got = reachable_states(rep)
    assert got.witness_n0 == p**10 - 1 > 2**63
    assert ref.reachable_states(rep, 100) == (
        got.states, got.witness_n0, got.nonzero_ct_off_origin)


# SHA-256 of the walnut and dot exports of the classify-automata presets,
# as built before closure.close replaced the FIFO loops
GOLDEN_EXPORTS = {
    ("pascal", 2, 4, "forward", "walnut"): "e366a963259dea1d10c420c6379d15e0b5a33d3d988edec5b66879af8b8ac59d",
    ("pascal", 2, 4, "forward", "dot"): "b81edd5ffb391c6482a259b761681f04701e28da9df5510fe35d628882fbfb89",
    ("pascal", 2, 4, "reverse", "walnut"): "f49581866049f6bb9fe7d368a7629de0e08bde7dee008c847134c3b376ec7ea1",
    ("pascal", 2, 4, "reverse", "dot"): "7d34ae01db74dae0bb9a15a2d572ddb518f6f6a0926ac2364ede09bc62b7050a",
    ("pascal", 3, 3, "forward", "walnut"): "ee31d203a6d8512612ca5238de6515401286ef2980b844ab6f30a00f496eddb7",
    ("pascal", 3, 3, "forward", "dot"): "6bd3c3f8f83eb117f4835c42b30073befd1d1e647f1b00aac35857e63126ce9b",
    ("pascal", 3, 3, "reverse", "walnut"): "62b2d01c6cb616694abb8644d005e51ddd76953c2862528f2c79e6b0ca430b42",
    ("pascal", 3, 3, "reverse", "dot"): "304e409832ecad79fbfc7a75421b7cac3952d8d19c1bd6a6b06a14d154996a26",
    ("pascal", 5, 2, "forward", "walnut"): "2af096dfd86f3bbcbb8781335936949cbc7d0e77248331bfa36406b803cb3d9c",
    ("pascal", 5, 2, "forward", "dot"): "5a5c28eda36d9c7b7f3d3205b064ee0d476b206dd45a4d6f60af57bbe78dcc22",
    ("pascal", 5, 2, "reverse", "walnut"): "09e0e60524c8f31fedb72b646b3ba486199212f1ac35ca63dcf8951d50796232",
    ("pascal", 5, 2, "reverse", "dot"): "5e6bfaaf2fe48532d4cfc8a291d1f96b21093c0415ebaffb4aad5bfdbbc8bbf5",
    ("pascal", 7, 2, "forward", "walnut"): "8acc2ceda50e986e69020e4173c674336661317c8810df55c4bc874dc93defb1",
    ("pascal", 7, 2, "forward", "dot"): "1eede5558e78203505e292f1dfb9557f372136a7957d6c228ce60fc21ce263e2",
    ("pascal", 7, 2, "reverse", "walnut"): "27a8d8939045d6dc48ac9b252c126d02a3badf70bbdb738f33d5016f07dfcd8d",
    ("pascal", 7, 2, "reverse", "dot"): "1ce83b1c9e1c8d2b2f87672e22d6909f0a634249b37f81de5169510b255f8264",
    ("catalan", 2, 4, "forward", "walnut"): "e366a963259dea1d10c420c6379d15e0b5a33d3d988edec5b66879af8b8ac59d",
    ("catalan", 2, 4, "forward", "dot"): "b81edd5ffb391c6482a259b761681f04701e28da9df5510fe35d628882fbfb89",
    ("catalan", 2, 4, "reverse", "walnut"): "4cdd2280c8c05b2b5ab22a10c20edabbdf975ec072c3e0db7d99ba7e37d36c36",
    ("catalan", 2, 4, "reverse", "dot"): "63bb16c0711c8ec734264fd1c89870198257ed3a24dab9678a650d1b68e99bf3",
    ("catalan", 3, 3, "forward", "walnut"): "67eb9a2120a3cfdffde9995f5421e972117036e25aab504ccd9d292b260652f7",
    ("catalan", 3, 3, "forward", "dot"): "ca850bc8b2d58b35a420e5165ec8d27d3f19a7e5a2eaf556055bf85fa43b37af",
    ("catalan", 3, 3, "reverse", "walnut"): "83e9d06a4571a4b406f3fbb702d0833d95d040c0949e68e67532fb1cf2df6f2b",
    ("catalan", 3, 3, "reverse", "dot"): "d03ce726bd30b5b9e30fdd6b3370b8b5e9c90ddb703dfe95181c085045330e13",
    ("catalan", 5, 2, "forward", "walnut"): "d30852c443fe1e00d730a9eab9ee7a8f99b0d3ee2ea94553ec4abba0019915db",
    ("catalan", 5, 2, "forward", "dot"): "2e79b70c5122016e32e9c3c761f6f75757566db11f178d3cd39f8d95d26dcfe2",
    ("catalan", 5, 2, "reverse", "walnut"): "550a3c27ac849f4d2ab165cb86ec0c557684e80576b36ba361f991ab30449976",
    ("catalan", 5, 2, "reverse", "dot"): "4d6b78bc07cb4d0ae0cfcfb74eafd0a00d097a23a31e1b3b4ce19ed11e1afbe3",
    ("catalan", 7, 2, "forward", "walnut"): "090284188c4b59003151f8a5e17b80346f63752bb7d50fcd08236ae0bfd72999",
    ("catalan", 7, 2, "forward", "dot"): "f010e52ba69adfad811dc208a401d69fe2cb7e94aa6540291c04f05bf428d831",
    ("catalan", 7, 2, "reverse", "walnut"): "79d955096f27e83bc43fbf629a2b20b16dbc5ead938c8d8f0b08821bda9de612",
    ("catalan", 7, 2, "reverse", "dot"): "2ad4fb5273f81e1ab1a2cce1a6ec2b722b6f2a37767d50365d2d80a79352b4db",
    ("motzkin", 2, 4, "forward", "walnut"): "62671d5b9f4d04a4193e200833384b1884066fc1c0ae05bfd05ab26b6abc309f",
    ("motzkin", 2, 4, "forward", "dot"): "575d034dcc1a30710944c18b00433692555536246775558684d81ee23cfcc608",
    ("motzkin", 2, 4, "reverse", "walnut"): "98152f3c6aa19c9975579bf5cd66037f950ba6337b0d9349ec5b919febdb3f1d",
    ("motzkin", 2, 4, "reverse", "dot"): "eba8a426c71030e72b52129862ed47cecdbd8ae0e4117db06dd63f1a992909cb",
    ("motzkin", 3, 3, "forward", "walnut"): "62852b6a9681bfb6dbd92aeab3da701788a6e45e0519f5d1e5575b33c3ae0621",
    ("motzkin", 3, 3, "forward", "dot"): "931bf1f98adde3a060bb8bd372bcb7768a661ba8faa0e869e290eb6e42730795",
    ("motzkin", 3, 3, "reverse", "walnut"): "6e26ba4dbb6a1a6fe14946c5cbaebd55fafeecd6bf1257e5c8c91e5d203a4b3f",
    ("motzkin", 3, 3, "reverse", "dot"): "365123cc3824cf93e544d86ff3f788ede7959e3cd4545a844f1a4242302d31a6",
    ("motzkin", 5, 2, "forward", "walnut"): "da89216f9f77329e741433caa72c51c296fba654fbca7e61134f168324e53e9f",
    ("motzkin", 5, 2, "forward", "dot"): "b221ed5c97817c5256afdc7c3df092836c06bded1c0ffe752b2079b924ff3a5b",
    ("motzkin", 5, 2, "reverse", "walnut"): "6b968f431c6e225b83cd0b30dbe3502629a91a9f0d6ff2ece5daa678db04cdc7",
    ("motzkin", 5, 2, "reverse", "dot"): "3d219fa06f8bcd82f19bf5a9820a51665dfc63731826167c9e645d2f49255390",
    ("motzkin", 7, 2, "forward", "walnut"): "69a48c10c14a783780e91b009f4ee7ea8ccee50533d9d987eaaad59c343c8a16",
    ("motzkin", 7, 2, "forward", "dot"): "4dce0dfb4e63e396e71853d9cf875098abaf7ded9ce7e915c8fecf8e8765f13a",
    ("motzkin", 7, 2, "reverse", "walnut"): "17261e3afe8b378ddbe1a08b6fa8796376a9447df52e307f9988780ffc9a2e46",
    ("motzkin", 7, 2, "reverse", "dot"): "d22fcf2cc63b032bec51aa97ecfd4c9931435944b72aa644a50737934bd19786",
    ("trinomial", 2, 4, "forward", "walnut"): "cb002d07687a8ae5a38ef876a02129a2ca284ebd78fc1aedac5bc7ba19ee1535",
    ("trinomial", 2, 4, "forward", "dot"): "b57ea8bf09b3a3dcf5711cd4363d36abdc0a7dd30c99d2dcead5c4e411258716",
    ("trinomial", 2, 4, "reverse", "walnut"): "8fbea3e2654dab31e6e585f87f639f1d8861ef3a3f22f9abc84a922caaaeb149",
    ("trinomial", 2, 4, "reverse", "dot"): "34f7d468f02535fc30decb9b4c8cb2bc1bf2343e9a3efa90472c4de7375a1e2f",
    ("trinomial", 3, 3, "forward", "walnut"): "dda88d6db8c5c090a4310c8098355b0e4e1939700316ba588a4a5877bad52fb4",
    ("trinomial", 3, 3, "forward", "dot"): "f57dca8ea0c152a0c75b08ad3e33d96d10cdac82cfece7305a105ff456930b45",
    ("trinomial", 3, 3, "reverse", "walnut"): "15c3a77407737db8d886f4607ec26051a370f6a70a587cf035c02043b96fd81f",
    ("trinomial", 3, 3, "reverse", "dot"): "6b42924b0cb04c54b6319ad95a0e087a3946214db778b1da3394e821d6d06526",
    ("trinomial", 5, 2, "forward", "walnut"): "604c9c45a796a254192cb1f6d0d170e61ed013e8c79e1474aecd3f1ceb06c71d",
    ("trinomial", 5, 2, "forward", "dot"): "04b6a37bc2e0ea39ccef2287431aa43a6094ee3bea7cd4640a19ae20907eeb65",
    ("trinomial", 5, 2, "reverse", "walnut"): "684aa8b2235ae847aa0b2bf106a268e882fa4f5690d7e0e668720d3863f544dc",
    ("trinomial", 5, 2, "reverse", "dot"): "ba65f280f58089ccaaf99f3da1229df06bedf061a215d9d6cec0d284a63296a9",
    ("trinomial", 7, 2, "forward", "walnut"): "11474eb5c009765ac1523131b16e39a03dc9c7657a00078c4ab644614ae93120",
    ("trinomial", 7, 2, "forward", "dot"): "a24597cd35cf534b11475614be4a261d1437d23b3a57724230693f1b055687be",
    ("trinomial", 7, 2, "reverse", "walnut"): "f769dbd1caf9e99019131e25a0235805a47290daa1390f8dbd681f62baba1059",
    ("trinomial", 7, 2, "reverse", "dot"): "0d83e7044ffd97fa27e6c92e881e13cd5f44829685d123f9740f28c39b25a7a8",
}


def _preset_export_hashes():
    got = {}
    for name in ("pascal", "catalan", "motzkin", "trinomial"):
        P, Q = preset(name)
        for p, a in ((2, 4), (3, 3), (5, 2), (7, 2)):
            red = build_reduction(P, Q, p, a)
            machines = {
                "forward": build_forward(red.p_tilde, red.reduced_codings[0][0],
                                         p, red.modulus, rep=red.tilde_rep),
                "reverse": build_reverse(red.tilde_rep),
            }
            for direction, machine in machines.items():
                for fmt in ("walnut", "dot"):
                    text = machine.export(fmt).encode()
                    got[name, p, a, direction, fmt] = hashlib.sha256(text).hexdigest()
    return got


def test_preset_exports_are_golden():
    assert _preset_export_hashes() == GOLDEN_EXPORTS


def test_preset_exports_are_golden_in_coordinates(monkeypatch):
    # all 32 machines again, built on Howell coordinates
    monkeypatch.setattr(reduced, "_IDENTITY_WINDOW", 0)
    monkeypatch.setattr(reduced, "_FORWARD_WINDOW", 0)
    assert _preset_export_hashes() == GOLDEN_EXPORTS


# SHA-256 of the walnut and dot exports and of the state labels of the
# Apery reverse automata, as built on full window vectors
GOLDEN_APERY_REVERSE = {
    (2, 3): ("0d42487506e261b8c0dfee4027d79a4bf7d90ace85bdf7a4149a9fa70f32ca00",
             "9edf7c1622ec3feacb37dcb8fb5c2caabc7fe44accd77e5e1f585bb120f20b9e",
             "dd6dd39cce0760d752f67075ae6280fff7abf5ca05a2605a0fab6c192db5e7f6"),
    (5, 2): ("54aed325ff56f76e535bf23ff5a680f965538527b5574c1bd8f7351f21cf79df",
             "d4781b67e763861ea7844ea71e570c82b4494725ad0dd9420a99cdf7ef216230",
             "892b6749afca32ee53d334d4996553e19a2b67953471373f14780553fbd6c582"),
    (3, 3): ("10917cb73f4138d1e5894be7db3605627072dd338a159a5e030f58451cd7a6a9",
             "d629c1cb54739e45b68ed57e2be7a52d501a4d74dfc4cb11ebe7c41470a5a587",
             "26382491f47542fdb3788617a839121356987f6a722835d8fabcd5d872a8d110"),
}


def test_apery_reverse_automata_are_golden():
    # windows of 343, 729 and 4,913 entries, all on the Howell basis
    P, Q = preset("apery")
    for (p, a), want in GOLDEN_APERY_REVERSE.items():
        rep = build_reduction(P, Q, p, a).tilde_rep
        assert rep.reach_module().basis is not None
        machine = build_reverse(rep)
        texts = (machine.export("walnut"), machine.export("dot"),
                 "\n".join(machine.state_labels))
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == want


# the same for the Apery forward automata, as built on full window vectors
GOLDEN_APERY_FORWARD = {
    (2, 3): ("b9a5cfd08b8f93a5390d14225c31fac09b7253db0d3d4786946a61c106601939",
             "4359098b477f713a401fa7f2175ac4d123556e39f5181ec5464059a6b5bb5f2c",
             "10955e5a123fa4d9bfda0141d07f9f86b7228e1832289b5ded734f9672b10392"),
    (5, 2): ("c91ec2c7f566c5066acc937b8fb64ce07241d7a925451987fe23d25fbaee58db",
             "f0c12ff5f066fa73352ad1ea0d2645ddbcef2355ac7313ea94d6df338829aed9",
             "aa0558e180300ac2816aa51a8cedec2cda18a9f7e46af96a265b174194c447f7"),
    (3, 3): ("77931c3a8d7825471da96ee62f4718abba5096479e3c52095208aa2b05c51cb3",
             "ea6ce0a580818991f3bee165f61717a6b1c13abe443c0947aac5e279ef212363",
             "879369b598c72d18eb372c07f59c662cd9e444e6d1cb624459bf243cee5c4b94"),
}


def test_apery_forward_automata_are_golden(monkeypatch):
    # windows over reduced._FORWARD_WINDOW entries (mod 25 and 27) are
    # built on the Howell basis of the module Q's row spans, mod 8 on
    # full window vectors; all three again with every window on its module
    P, Q = preset("apery")
    reds = {(p, a): build_reduction(P, Q, p, a) for p, a in GOLDEN_APERY_FORWARD}
    span, built = reduced.span, []
    monkeypatch.setattr(reduced, "span", lambda *args, **kw: built.append(
        span(*args, **kw)) or built[-1])
    for cutoff in (reduced._FORWARD_WINDOW, 0):
        monkeypatch.setattr(reduced, "_FORWARD_WINDOW", cutoff)
        for (p, a), want in GOLDEN_APERY_FORWARD.items():
            red, built[:] = reds[p, a], []
            window = len(red.tilde_rep.index_set)
            machine = build_forward(red.p_tilde, red.reduced_codings[0][0], p,
                                    red.modulus, rep=red.tilde_rep)
            assert len(built) == (window > cutoff)
            assert all(module.rank < window for module in built)
            texts = (machine.export("walnut"), machine.export("dot"),
                     "\n".join(machine.state_labels))
            assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == want
