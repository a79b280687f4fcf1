"""Golden digests of every structural matrix constructor.

Each digest is the SHA-256 of repr((type name, source, target, rows)) over
all matrices a constructor yields on the alphabets {a}, {a,b}, {a,b,c} at
n = 0..4, so a change in how rows are filled, typed or indexed shows up
here even where no verify-all check reads the matrix.  Bare rows, such as
a chain's maps tensored with id_Y, are hashed as ("rows", width, rows).
"""

import hashlib
import itertools
from fractions import Fraction

import pytest

from helpers import dense, dense_rows, symmetry_kernel
from urnchains import chains, pcoh, stoch, verify
from urnchains._linalg import ONE, kron
from urnchains.multiset import BOOL, Alphabet
from urnchains.pcoh import PcsVector, ground_pcs, promotion
from urnchains.spaces import multiset_space, symbol_space, tuple_space, unit_space

SIZES = range(5)


def _copointed(alphabet):
    return {
        "stoch": chains.stoch_copointed(alphabet),
        "pcoh-ground": chains.pcoh_ground_copointed(alphabet),
        "pcoh-free": chains.pcoh_free_copointed(ground_pcs(alphabet)),
    }


def _lift(alphabet):
    # the copointed morphism that verify.morphism_checks lifts, and the components of its lift
    seen = []
    lift = verify.lift_copointed_morphism

    def record(alpha, *args):
        morphism = lift(alpha, *args)
        seen.append((alpha, morphism.components))
        return morphism

    verify.lift_copointed_morphism = record
    try:
        config = verify.Config(alphabet=alphabet, depth=SIZES[-1])
        verify.morphism_checks(config, verify.chain_checks(config)[1])
    finally:
        verify.lift_copointed_morphism = lift
    ((alpha, components),) = seen
    return [alpha], components


def _tensored(alphabet):
    # eq_n, section_n and DD_n (x) id_Y of each chain, Y the parameter of verify-all's tensor checks
    y = symbol_space(BOOL)
    out = {}
    for label, obj in _copointed(alphabet).items():
        chain = chains.build_dd_chain(obj, SIZES[-1])
        plain = (chain.eqs, chain.sections, chain.dds)
        for name, maps, rows in zip(("eq", "section", "dd"), plain, chain.tensored(y)):
            out[f"{label}.tensored.{name}"] = [(r, len(m.target) * len(y)) for m, r in zip(maps, rows)]
    return out


def _bang_legs(alphabet):
    chain = chains.build_dd_chain(chains.pcoh_free_copointed(ground_pcs(alphabet)), 4)
    k = len(alphabet)
    point = PcsVector.of(symbol_space(alphabet), *[f"1/{k + 1}"] * k)
    legs = chains.bang_cone(promotion(point, 4), chain).legs
    # bang_cone's legs are bare rows; hashed as the matrices they were recorded as
    return [pcoh.PcsMatrix(unit_space(), chain.backend.level(n), leg) for n, leg in enumerate(legs)]


def _constructors(alphabet):
    out = {
        "symmetry_kernel": [
            symmetry_kernel(alphabet, n, perm)
            for n in SIZES
            for perm in itertools.permutations(range(n))
        ],
        "discard_kernel": [
            stoch.discard_kernel(space(alphabet, n))
            for n in SIZES
            for space in (tuple_space, multiset_space)
        ],
        "multinomial_diagonal": [chains.multinomial_diagonal(alphabet, n) for n in SIZES],
        "bang_cone": _bang_legs(alphabet),
    }
    out["morphism_checks.alpha"], out["morphism_checks.lift"] = _lift(alphabet)
    out.update(_tensored(alphabet))
    for module, names in (
        (stoch, ("eq_kernel", "coeq_kernel")),
        (pcoh, ("eq_delta", "canonical_section", "multinomial_embedding")),
    ):
        for name in names:
            out[name] = [getattr(module, name)(alphabet, n) for n in SIZES]
    for label, obj in _copointed(alphabet).items():
        out[f"{label}.weaken"] = [obj.weaken]
        out[f"{label}.delete_map"] = [obj.backend.delete_map(obj.weaken, n) for n in SIZES]
        out[f"{label}.dd_closed_form"] = [
            obj.backend.dd_closed_form(obj.weaken, n) for n in SIZES
        ]
    return out


def _digests(alphabet):
    out = {}
    for name, matrices in _constructors(alphabet).items():
        h = hashlib.sha256()
        for m in matrices:
            if isinstance(m, tuple):
                rows, width = m
                h.update(repr(("rows", width, dense(rows, width))).encode())
            else:
                h.update(repr((type(m).__name__, m.source, m.target, dense_rows(m))).encode())
        out[name] = h.hexdigest()
    return out


# recorded before FinKernel and PcsMatrix shared one matrix base; the lift's
# components and the tensored maps before `kron` kept the shared ONE
GOLDEN = {
    1: {
        "bang_cone":
            "5a735d1aa8b31fb15256dd053a0821dc93d4c84d637a891b120a10cd826413cd",
        "canonical_section":
            "171b921bf541def9c75b7fdd7abe9b2e7d7adb339ab40470b1947a528e1ba30c",
        "coeq_kernel":
            "637de6e73fe15b7504be287691343ed41b7529ff295861ce8edebc02c97f3793",
        "discard_kernel":
            "9a7ffa4fbc7ded38f54e6646a797a6d1c0692d448f5109f37834893fce6d5343",
        "eq_delta":
            "a1d0c17fe511bb98f4411d3d1d5dd39083388ff8a0e2de944c6fa951d7ca4b8a",
        "eq_kernel":
            "f78fa881641895ca114b91cee51dbd4991d588b31220052ea592929ca390e732",
        "morphism_checks.alpha":
            "6d577e7a61a6d40e47ba442f27287a01286e268abc9372dc2cf6d3c6ababf284",
        "morphism_checks.lift":
            "f2ed12a9197b0e6ece5cfbcef4931404b4fb88b5dd7d58fb8b5c92b376ad37da",
        "multinomial_diagonal":
            "95a02f1b838fd6796019437eec10492ee31775592e1a1517ef57efdbc1f1ed98",
        "multinomial_embedding":
            "e20401a2dff6644a253d9cab5f59ed1aeeb816ed4f238b2f513d22a12d57d711",
        "pcoh-free.dd_closed_form":
            "2c34327a7496c570293d9e056abf52acd6bfc9e9ec29075a385d8ef0f2a1012e",
        "pcoh-free.delete_map":
            "f34ba5d687d2b7d7c46efab5822db6827d4fd357a7c3d568a8868fe4356d5c98",
        "pcoh-free.tensored.dd":
            "27b6b41ee45d0faa52af92e5f8d345e1c80e26be39221edb03e03fca88636908",
        "pcoh-free.tensored.eq":
            "5bb2dd150cb7abc86a285a6746a3ada176e3b94fc9eead3a7900d68b7bd5a733",
        "pcoh-free.tensored.section":
            "2b2780a0479a035b5eb9fa5793e1766fa642c6e3f8614bd7268d3cd0bcdf4f56",
        "pcoh-free.weaken":
            "87153e3dee1659ab3870c7e3910b50128edb4faac835faae04c339d270ef4c33",
        "pcoh-ground.dd_closed_form":
            "c4300d0bfb213fe5838995140c9ade4e9926fb42c5bf3756e277ef771134952a",
        "pcoh-ground.delete_map":
            "e359ab8ee7f0c46be64991231964c36297b425e1b9b5777b9be1a0e24b0b07d6",
        "pcoh-ground.tensored.dd":
            "9fd0a8c622c957ccaa45442183e887117946e82a76ccc33be312f5e199b85581",
        "pcoh-ground.tensored.eq":
            "56a3de4579cf51a9c27187c8c0386aad44c2bae9f15f78f1bf5d4f37fe782eb9",
        "pcoh-ground.tensored.section":
            "56a3de4579cf51a9c27187c8c0386aad44c2bae9f15f78f1bf5d4f37fe782eb9",
        "pcoh-ground.weaken":
            "e709c94b6e067ebe74ec90788ec265153b5743829bbba31936b1583cfd0f6a1a",
        "stoch.dd_closed_form":
            "c3977fec6a47c7ef0d1e3c7f08d8d62d5464828ae87933b51b37888692679dfa",
        "stoch.delete_map":
            "f6c5351fd4bc98e3713830ddb972a71a4413ba82da3c1779c81e509c6abb6bcc",
        "stoch.tensored.dd":
            "9fd0a8c622c957ccaa45442183e887117946e82a76ccc33be312f5e199b85581",
        "stoch.tensored.eq":
            "56a3de4579cf51a9c27187c8c0386aad44c2bae9f15f78f1bf5d4f37fe782eb9",
        "stoch.tensored.section":
            "56a3de4579cf51a9c27187c8c0386aad44c2bae9f15f78f1bf5d4f37fe782eb9",
        "stoch.weaken":
            "062614002ca35dfeef33a53620815714cf8d94dfa32d17647fbccf9282515f92",
        "symmetry_kernel":
            "6b019e018a9e692605f9db3a7885b4332c81eb920e02428adf65690ab973a28d",
    },
    2: {
        "bang_cone":
            "0c58dba85b382e82b8e8d7651353b1d00b4aecf2efe06e351acadeac9b0270ac",
        "canonical_section":
            "ec5d7a1102d656c51616fbdf9446633565a14c4b967a3474c86f525efa2b0544",
        "coeq_kernel":
            "9d3fcf4f73ec586e466c3296c4e7b74901594d8e53adb66aae9066e45f8586af",
        "discard_kernel":
            "2c07bc1b53139de4718fecdb7744216bd3a2a0df238227a6e32fc189a6467b9f",
        "eq_delta":
            "c4d1ba2c94437a524c7b7308288337c5fd366368b8f4fb81201e819f185e0f32",
        "eq_kernel":
            "b1461677fb730180e3c89f20c9b7d9dd061eb48e6e6d29feedd5474b46e74742",
        "morphism_checks.alpha":
            "4530c8e807f37981a8f0e45b5ba4d71e2a2085c398e7c4e1924614668d3de3db",
        "morphism_checks.lift":
            "9868bc538e9e7b9502faf0a2a3fb4d7040b3bd7416f7fb7f915c3838cd272f0f",
        "multinomial_diagonal":
            "cff003f2012a93a80846371aa04770bc88c9bcabdc9553815e444f8d2fb5f9ff",
        "multinomial_embedding":
            "289eeb6120736d8acc91af3f57a80204e652fe21bfc5ada7712fb37d8840a30d",
        "pcoh-free.dd_closed_form":
            "7d69fc574cc7d9e54f791b281628ea90652cfdac46da40ddea085e9976608f3d",
        "pcoh-free.delete_map":
            "1669f74d4d64517bf6f18f09e03436ad8a5050a172d5ab2ed0db465dee8e1764",
        "pcoh-free.tensored.dd":
            "752f421898119b505a0c62fcc45bfac6ff0a905254ca2b32605267db578be5fe",
        "pcoh-free.tensored.eq":
            "3757d76d8d859fd79786e32d2a06ed56767c85ffa95bfd0f3b927516451867c7",
        "pcoh-free.tensored.section":
            "6b41aa29c852763eec27b48f33ddec2e4313a6d53f054844089eaf037da46029",
        "pcoh-free.weaken":
            "909b84bd5099330d07e41890388308a129e73127c938fdc688def314573957c3",
        "pcoh-ground.dd_closed_form":
            "429d14dd28d8786080421e54291f35209f75971392938a9c22ab7667b90e6d31",
        "pcoh-ground.delete_map":
            "9feb8ad282370e805c43bb03567bb33533e9703dadf17185acb62d6b6343fb37",
        "pcoh-ground.tensored.dd":
            "4a3c8cdfeac831111b876316a8d8e8bc88860a4fdc15a445489709b6ed8c8217",
        "pcoh-ground.tensored.eq":
            "5bb2dd150cb7abc86a285a6746a3ada176e3b94fc9eead3a7900d68b7bd5a733",
        "pcoh-ground.tensored.section":
            "2b2780a0479a035b5eb9fa5793e1766fa642c6e3f8614bd7268d3cd0bcdf4f56",
        "pcoh-ground.weaken":
            "d35fa9318c26e497ee1cb6a140285bae0dd3c2af3c7daa4d851b46ebe5a765ad",
        "stoch.dd_closed_form":
            "3a04f8903ea2a7ff47c76fbab7738b5663a3d13f2635ee5a3994f5f6abfb34e4",
        "stoch.delete_map":
            "421daa8d731f43023b7717fe21ecc45f7bad5b275cc0bf90df533bfe091a9ed5",
        "stoch.tensored.dd":
            "32773eb0aaa12f29cac988cbc555361ef528a7f0702bad9457c87d22b97607e5",
        "stoch.tensored.eq":
            "b18ec7a5d9104adcdf721d8f5eacd43162096c8fb54c6736319db7970dd97542",
        "stoch.tensored.section":
            "bbc18b7c269664329494f1ea70a649f41710ef5106f354627eab14a4a5b449cc",
        "stoch.weaken":
            "052ed39c51f66c5d5352104835ee95d7f00974b5ccfef1b4b01aff2f66707a31",
        "symmetry_kernel":
            "dd7f4f33d86f9b6bd917b85e686668b8046514e836edda311d73b83204544aba",
    },
    3: {
        "bang_cone":
            "4cc73a4e068b509340f795339010b4d40b947ee4be40db814dbe80d869858a0a",
        "canonical_section":
            "2a44378ab0cb72ebf48136f9a51e81eb42e0ee450762b455e300bf286c266de5",
        "coeq_kernel":
            "3a6f4a85437ecb1b0856726baa5ab582e713be00f2f76bf19449990d6abf14ad",
        "discard_kernel":
            "97604e4b45e8bdca19fd79045f03f164e229401fc3416b43a5e943fba733a456",
        "eq_delta":
            "875d08135592543b4e5cb458a703239e344601b83b388a6b5e322b4caf254b48",
        "eq_kernel":
            "e3f8a22ad0915e1197de7f14a531b7c3b0310b4c37c95def7fe9c354f81a5f30",
        "morphism_checks.alpha":
            "3947eceea70109445f81d1307b7c9a94e12bc8ae10482fce62722aeab17dbe56",
        "morphism_checks.lift":
            "49679188d174b8749a1acb3052b5e88f699e971a716deea76d54bd756b42a331",
        "multinomial_diagonal":
            "66b1ed80bd56a090a74078d38561dac79f449d596b68187ccb28b4544bef6543",
        "multinomial_embedding":
            "96ccc6e938f1eb3772bf216c46ddf6087a1b62baf373ae8ee94d88be0eb84072",
        "pcoh-free.dd_closed_form":
            "8920a971bf807a686ef7d721f5da014092f500ddb955a2847706c28175b6c032",
        "pcoh-free.delete_map":
            "18e065af492a807ac345476d44d5ee45e05ddc8bbc30d89b705e852475c72465",
        "pcoh-free.tensored.dd":
            "268001132783cda00d7a6d8c4ecf83f6ce449dfe49f73088d61368c6d2014611",
        "pcoh-free.tensored.eq":
            "fc74aea1a77aaf9c89f41b42c3226371db3c6d15ac24bbe61dbae74da8d8746d",
        "pcoh-free.tensored.section":
            "188705dcc3f77b6613c494934903964f209178f9a91e0d68bd03daf8ba2f6f49",
        "pcoh-free.weaken":
            "d934878c3dd3bfd7e98e5af46f5c09411b242978b8436a855672427897bb0714",
        "pcoh-ground.dd_closed_form":
            "16e845c1b2d3409b7c865abab95cfdd76c6e52eabcd57d79f09773a9e617797d",
        "pcoh-ground.delete_map":
            "b850c2cababe18fdee7a063403bd603563910830fabc99d4e72466f49c923d68",
        "pcoh-ground.tensored.dd":
            "6cb50382c397209fe6d7cfafeaee69d0075f6a083fca64d19080a1ee93dfc9b4",
        "pcoh-ground.tensored.eq":
            "3757d76d8d859fd79786e32d2a06ed56767c85ffa95bfd0f3b927516451867c7",
        "pcoh-ground.tensored.section":
            "6b41aa29c852763eec27b48f33ddec2e4313a6d53f054844089eaf037da46029",
        "pcoh-ground.weaken":
            "5a7e814ce3fc98df5f2108315b06818b5fba23d37d4241c5998f14ca4972d3bd",
        "stoch.dd_closed_form":
            "d3d53f360ba123e63a635785a97faa4349ddf284405ffab335745b913bd46036",
        "stoch.delete_map":
            "41b8012e856286e9662e80f7936d81c5c67a1e75193da1bfec68ab8902e06de5",
        "stoch.tensored.dd":
            "310e21232a87ed57081e9f0cdb912d73c364f0f9dc17c73713898713de02d4c7",
        "stoch.tensored.eq":
            "d0faf9ccb2b425b5bcd5e43187faf444997bf128f4f08cb8d799888d8aa7704d",
        "stoch.tensored.section":
            "ab62c852674bf7292674486202124ec390283ef7ac94a6bd66e74c79fc2d710e",
        "stoch.weaken":
            "1f2736fe9ff0d3ef68cde00b4ecd5e241d719c14e8a5a11dfd40108e0184df37",
        "symmetry_kernel":
            "1b84abfffa0ffadcdf9da5691bf5f5ecdab7936628ac162b5d98b1cf94989148",
    },
}


@pytest.mark.parametrize("symbols", [("a",), ("a", "b"), ("a", "b", "c")], ids=len)
def test_constructor_digests(symbols):
    assert _digests(Alphabet(symbols)) == GOLDEN[len(symbols)]


def test_kron_keeps_the_left_entry_where_the_right_one_is_the_shared_one():
    half = Fraction(1, 2)
    left = ({0: half, 1: Fraction(3)},)
    (row,) = kron(left, ({0: ONE, 1: Fraction(1)},), 2)
    assert row == {0: half, 1: half, 2: 3, 3: 3}
    # a product by the shared ONE is the left entry itself
    assert row[0] is half and row[2] is left[0][1]
