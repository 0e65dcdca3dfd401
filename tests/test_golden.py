"""Byte-identical gate for seeded outputs.

The digests below were computed from the implementation that built every
hypergraph through ``Hypergraph3(n, edges)``, stored a frozenset of edges
beside the pair masks and built the absorber family through per-vertex
``is_v_absorber`` checks.  The current code must reproduce them: the
generators' text output (what ``hypersquare gen`` prints) and the cycles
``construct_squared_hamiltonian`` returns are part of the manifest-replay
contract.  The ``absorb --demo`` digests were computed from the absorber layer
that kept a per-vertex index of tuples and located each tuple in the host path
by a slice scan.
"""

import functools
import hashlib

import pytest

from hypersquare import (
    Config,
    complete,
    construct_squared_hamiltonian,
    dense_instance,
    dense_random,
    format_hypergraph,
    pikhurko,
    random_hypergraph,
)
from hypersquare.cli import EXIT_OK, main

# (n, delta2_target, seed) -> sha256 of format_hypergraph(dense_random(...))
DENSE_RANDOM = {
    (14, 0.5, 0): 'a5b5f4407413624ce880668306c4a9f269e6bdc958481fb70798549da918e360',
    (14, 0.85, 1): '851971e357d73e5d92478ae9f5d6dae04168dbc667d51dadc332186dbc9df35c',
    (16, 0.6, 2): 'b2f13a2d6c3790abb11395b91a3159cfcb1304159b3d4f96121904dc8d6e4c6b',
    (16, 0.85, 3): '2b1bbbb852c45e1b30c0d10224a9a0d1664dba3140cbfcf0d6d917058a744491',
    (60, 0.8, 0): '8680984b0cf525190f89a04b196f6ec184f04739a3d1b4ee4f10d0e2df1f9c96',
    (60, 0.9, 1): '2af6c1fb2b4c8b3cd959841c3c36250661673abe554a52e6208dc919b5858777',
    (100, 0.9, 2): 'f646453e327fd76e89b203a0763dd1afc09d7bc25ab49aaccc03df41b5011433',
    (150, 0.9, 1): '06ff095c3a2154fa3ba036c1ed7229958048e75a265fb35faf484963c2f1dd78',
    (150, 0.85, 2): 'a7789dbc68dc8b9c2e47b422e6e28ed95c9609be467525a9a7624b52e089b49c',
}

# (n, fraction, seed) -> sha256 of format_hypergraph(dense_instance(...))
DENSE_INSTANCE = {
    (14, 0.0, 0): 'c2403c10ccc2961bcef8d6fb1d2559d8be8bedb9179938d594d89ebedd56943c',
    (14, 0.6, 1): '2b707d68e1f2d609f3022c03da66960a416fdbfd40014c79e6f84713ce76b40c',
    (14, 1.0, 2): '851971e357d73e5d92478ae9f5d6dae04168dbc667d51dadc332186dbc9df35c',
    (16, 0.75, 7): '82b38d01f7f90de675c5831a718cd4f7dc32d960ea01560a1697d12a95ea8fc1',
    (16, 0.9, 3): '2b1bbbb852c45e1b30c0d10224a9a0d1664dba3140cbfcf0d6d917058a744491',
    (60, 0.5, 4): 'a402ead29f4e58eeb517ae1cc7ccb1e6324ebe7d36946e49af2e7e1e45318110',
    (60, 1.0, 5): 'c1dc8e773c39502f4e8f3ff7bd6aeed933ba3115a6bbbfec01333dce26837d0d',
    (150, 0.9, 6): 'bcd908e342081a28f9015297943afe4896cbb9dfafb4267a7e502750e7c93b76',
}

# (n, p, seed) -> sha256 of format_hypergraph(random_hypergraph(...))
RANDOM = {
    (0, 0.5, 0): 'bca39a7d5dee008bf66d4c81afdcf2666bd8a3bfc3584c8d855e913e4586edbc',
    (5, 1.0, 1): '6b164a41c82973c32584f6a11856e55fd304c15a9a2ccf1ccc3fe7279294b923',
    (12, 0.5, 0): 'a041846f63d99b5437af91f244528440404ea57de278051cf836bd5b6696144e',
    (20, 0.3, 1): '613f86d6fa2da2870e517b2da867ee1a3084ed6fd1520848f868a9a6ea386e78',
    (60, 0.8, 2): '1f00a8222fb88d23f3f960685318f8ede67834f8f5e790dd1289f028ec78056c',
    (100, 0.9, 3): 'a7cc0213c806e0525dbe93014335c06d6f126463dffcd32e9b851473f71b46bb',
}

# n -> sha256 of format_hypergraph(complete(n))
COMPLETE = {
    5: '6b164a41c82973c32584f6a11856e55fd304c15a9a2ccf1ccc3fe7279294b923',
    8: 'bef13c3f11d986baffe0ce65bea0129d86c77ce65b7aff8843d5869eb2c2af4b',
    9: '81b98582c00abfe73c1715f5d13aa0e0e8a54d56dab031192c39003c39dca112',
    12: '0809423ab2795fd2bfcfebff2efbf197cc2eb71d50a80bd2a1ab759929775806',
    16: '2b1bbbb852c45e1b30c0d10224a9a0d1664dba3140cbfcf0d6d917058a744491',
    60: 'c1dc8e773c39502f4e8f3ff7bd6aeed933ba3115a6bbbfec01333dce26837d0d',
}

# n -> sha256 of format_hypergraph(pikhurko(n)[0])
PIKHURKO = {
    8: '8464bf3ba1e25fbac4fd750aad42294c28b27ec670e2a28d4c64c9b71e9e807f',
    9: '0217ce28ce0a30983113852d5a3c87543478346a02552905ea7014e3b0c6ba16',
    12: 'bfe3b1d1544810a6d92f74804ce9faa323d0fefd9a17323a88c7446ca955e634',
    16: '8ea9dcba7e31a5bac7396ef23a8cb9b74dd3de426664eb1d9082c85c50dd628c',
    60: 'c88f7168210a332bef720c3b60fceea0313aedc47971d6af2d894a12a7a07f27',
}

# (n, delta2_target, instance seed, theta_star, config seed) on
# dense_random(n, delta2_target, instance seed) -> (outcome, stage, attempts,
# family_size, sha256 of the cycle, the failure detail and the stats without
# timings).  The n <= 50 cells all hit join failures that shrink the family.
CONSTRUCT = {
    (60, 0.9, 1, 0.3, 0): ('cycle', None, 1, 8, '10b160b284084ecfb95656b8e1de3c4a3852546e3bb0da4dd6f7983851f90dec'),
    (60, 0.9, 1, 0.3, 1): ('cycle', None, 1, 8, '9d02b9f7d1ec0b20913b9e483db20cd46bccaf9f44bfc10793906b3e8fdb84d3'),
    (100, 0.9, 2, 0.3, 0): ('cycle', None, 1, 13, 'd4ddb5184e5a4403e913951d59db404e7c18ce9479eb026a6efeffc993113954'),
    (100, 0.9, 2, 0.3, 3): ('cycle', None, 1, 14, '3cd49e3c784e14084e077e249120e545c54ab75c244bdafb4708d6f5eb482d46'),
    (150, 0.9, 1, 0.3, 0): ('cycle', None, 1, 21, 'a4df559443deb474758a2a45e4169cc0d5cb1e6b5a7bfcc04cd402eb8c7c9557'),
    (150, 0.9, 1, 0.3, 5): ('cycle', None, 1, 21, 'd69d98d186082f0707d6a5bc64ff67413719049e7ef84e61c3029dafea6b77ec'),
    (30, 0.8, 0, 0.15, 0): ('failure', 'absorb', 3, 3, '56bb3bd35f2e2fc6d5bbd5196cd04bb9f40ea281eca133a5ad5bf61067e62ed8'),
    (30, 0.85, 0, 0.15, 0): ('cycle', None, 3, 4, 'df4df3f931fe8719622fbe35a44863a845580bfd78cfbe602e18902206347847'),
    (40, 0.8, 5, 0.3, 5): ('cycle', None, 3, 5, '67bddefcbe9829b248cadc2eab8c970a6953245af319404b7eafa8481e5d6034'),
    (50, 0.8, 0, 0.3, 0): ('failure', 'connect', 3, 5, '1fad86733bac6adab3cee4eb430daa2cff73b3259e6b0334ac8a1061e064527d'),
    (50, 0.8, 1, 0.15, 1): ('cycle', None, 3, 7, '0daefd7edd4211755f277a4d311ca58f1898add9c84fd397d9a296c16f070948'),
    (50, 0.8, 2, 0.3, 2): ('failure', 'absorb', 3, 6, '2f43fb8a121f3948acd70f9c3e6cccfcc84fcdd589e647b8ca3e9f228c4c93d7'),
    (50, 0.85, 2, 0.15, 2): ('cycle', None, 3, 7, '2e6a50fef9fc173d773ec43ffad50b251793989782927284d0cc58848462b8ef'),
}

# (n, seed) -> sha256 of the stdout of `hypersquare absorb --demo --n n --seed seed`
ABSORB_DEMO = {
    (12, 0): '64e1089585663913343d66b71d086408b98169717e91a690ed46f841ff14ffb7',
    (12, 1): 'bdc8bcf439a72ce18b3bb5218e7a086983f4f44db3d4354f14424ae4c9fc49e7',
    (12, 2): '770f5f7ed68698506481c9b1b58f4e07f3663b59f0a98797b88a117138186056',
    (12, 5): 'd0e63d291243714ff63b97951cac5326ebb079452bf5d80063993209a45cb280',
    (20, 0): '8e0abb9bbc875c5f1bbc8656f1bf345ba73a800de383b2a03820ef2cb4392937',
    (20, 1): 'd1ced282c89f4f89033eac32d368e4350b2b5f038964f56e21887e3f5c638411',
    (20, 2): 'de354d8bec859d2653dc09ee22cc05af43b2e13178b94ceebee69eae686633f3',
    (20, 5): 'ae9d46618b2436c01c07ed50d6af1d0c3f1c815e6b46b19c522d45e40de3073c',
    (30, 0): '94955dc9dad3137ca30a43d599486c8c572c42a60fad5d6f7ca946674b6fb656',
    (30, 1): 'b846874cdf937e028e317197a1a7a0e4d75c538e319aad639f2c889610269c50',
    (30, 2): 'bbae416ac226c5d184e441ee6898d2da02c52b5c9b9b00f547777e87f9563a50',
    (30, 5): '08b92db3560fe4034b260895d324fd49784c8e8001def9d050832437ff5e2df2',
}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _dense_random(n, delta, seed):
    return dense_random(n, delta, seed)


def construct_record(n, delta, inst_seed, theta_star, cfg_seed):
    h = _dense_random(n, delta, inst_seed)
    rep = construct_squared_hamiltonian(h, Config(theta_star=theta_star, seed=cfg_seed))
    stats = sorted((k, v) for k, v in rep.stats.items() if k != "timings")
    cycle = rep.cycle.vertices if rep.cycle else None
    return (
        rep.outcome,
        rep.stage,
        rep.attempts,
        rep.stats.get("family_size"),
        text_digest(repr((cycle, rep.detail, stats))),
    )


@pytest.mark.parametrize("cell", sorted(DENSE_RANDOM))
def test_dense_random_text(cell):
    assert text_digest(format_hypergraph(_dense_random(*cell))) == DENSE_RANDOM[cell]


@pytest.mark.parametrize("cell", sorted(DENSE_INSTANCE))
def test_dense_instance_text(cell):
    assert text_digest(format_hypergraph(dense_instance(*cell))) == DENSE_INSTANCE[cell]


@pytest.mark.parametrize("cell", sorted(RANDOM))
def test_random_hypergraph_text(cell):
    assert text_digest(format_hypergraph(random_hypergraph(*cell))) == RANDOM[cell]


@pytest.mark.parametrize("n", sorted(COMPLETE))
def test_complete_text(n):
    assert text_digest(format_hypergraph(complete(n))) == COMPLETE[n]


@pytest.mark.parametrize("n", sorted(PIKHURKO))
def test_pikhurko_text(n):
    assert text_digest(format_hypergraph(pikhurko(n)[0])) == PIKHURKO[n]


@pytest.mark.parametrize("cell", sorted(CONSTRUCT))
def test_construct_cycle(cell):
    assert construct_record(*cell) == CONSTRUCT[cell]


@pytest.mark.parametrize("cell", sorted(ABSORB_DEMO))
def test_absorb_demo_output(cell, capsys):
    n, seed = cell
    assert main(["absorb", "--demo", "--n", str(n), "--seed", str(seed)]) == EXIT_OK
    assert text_digest(capsys.readouterr().out) == ABSORB_DEMO[cell]
