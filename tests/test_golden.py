"""Byte-identical gate for seeded outputs.

The digests below were computed from the implementation that built every
hypergraph through ``Hypergraph3(n, edges)``, stored a frozenset of edges
beside the pair masks and built the absorber family through per-vertex
``is_v_absorber`` checks.  The current code must reproduce them: the
generators' text output (what ``hypersquare gen`` prints) and the cycles
``construct_squared_hamiltonian`` returns are part of the manifest-replay
contract.  The ``absorb --demo`` digests were computed from the absorber layer
that kept a per-vertex index of tuples and located each tuple in the host path
by a slice scan.  Both the construct records and the ``absorb --demo`` digests
were taken again, on the code whose config still carried ``beta`` and
``gamma`` and whose stats carried ``reservoir_budget_ok``, so that they cover
only the named stats and the output after the manifest.  The oracle digests
were computed from the cycle oracle that ran the six-partner window test as a
loop over every unplaced vertex and memoized every dead end.  The CLI
digests were computed from the command line that gave construct, tile, cover
and absorb all six config flags and built its manifests through a dataclass.
The auxiliary-graph, expansion, walk-count and ``aux`` CLI digests were
computed from the layer that built Gv from a list of link pairs, recounted
the whole cut for every candidate move of the expansion descent and returned
walk counts inside a ``WalkCountTable``.
"""

import functools
import hashlib
import io
import itertools
import json
import math
import random

import pytest

from hypersquare import (
    AuxGraph,
    Config,
    almost_k4_factor,
    build_g3,
    build_gv,
    build_gvw,
    classify_pairs,
    complete,
    construct_squared_hamiltonian,
    cover_with_squared_paths,
    dense_instance,
    dense_random,
    expansion_report,
    format_hypergraph,
    oracle_has_perfect_k4_tiling,
    oracle_has_squared_hamiltonian,
    pikhurko,
    random_hypergraph,
    walk_count_table,
    weighted_tiling,
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
# family_size, sha256 of the cycle, the failure detail and the STAT_KEYS
# entries of the stats).  The n <= 50 cells all hit join failures that shrink
# the family.  Both absorb failures name a vertex that no tuple of the family
# absorbs, and their details say so.
CONSTRUCT = {
    (60, 0.9, 1, 0.3, 0): ('cycle', None, 1, 8, '955db32d6a75bf1d794e20462c98fd89dc5e38ed24bc50d691d9f042afa7ccd3'),
    (60, 0.9, 1, 0.3, 1): ('cycle', None, 1, 8, 'f094d2598c56cff9e319fd1d10dd7f7f7ed48c4d418c27ab5390a3d40109fdf2'),
    (100, 0.9, 2, 0.3, 0): ('cycle', None, 1, 13, '59a67ebe1fffbd6b05095abbd1562822541160bc8e467ea1f0ad4be8ab92aee8'),
    (100, 0.9, 2, 0.3, 3): ('cycle', None, 1, 14, 'da1bd402ec1d16725d2416448b9623b80889e1fc0b2b52337f6c8465debb9478'),
    (150, 0.9, 1, 0.3, 0): ('cycle', None, 1, 21, 'a42e7a8ab4562b95eabf373038a0731527205a0e593cc8587d51df8926ed0004'),
    (150, 0.9, 1, 0.3, 5): ('cycle', None, 1, 21, '3d586f55d89d3a922e0c524f441f196e20e075d618b416d2d649503c8d21183e'),
    (30, 0.8, 0, 0.15, 0): ('failure', 'absorb', 3, 3, '210d1d9e3f803c761f4a695069d72b468ba2de9f36ceb73c75432d0ac44ee858'),
    (30, 0.85, 0, 0.15, 0): ('cycle', None, 3, 4, '3410bada39242c59a452aaac7d4e12f804d96d40dea8b0491c6664bafe6ada90'),
    (40, 0.8, 5, 0.3, 5): ('cycle', None, 3, 5, 'c56f059b5f5edfa93908326c6d11c3bf9c7d27347aee9ed324891d552d3c7d3a'),
    (50, 0.8, 0, 0.3, 0): ('failure', 'connect', 3, 5, 'c4532b3f9ee9db71792cd8e33702f64d6b1113953b6ea98ee3e22c8f26db6415'),
    (50, 0.8, 1, 0.15, 1): ('cycle', None, 3, 7, '98409882e5fb686b1b6a505234ba6f6884d1b53d99abd70ab13b7072d01fda0d'),
    (50, 0.8, 2, 0.3, 2): ('failure', 'absorb', 3, 6, '08adc36fbf5aa01cb3a4aa9e0c7a4fd69f08e3c05842dc71a6067e9736ba4123'),
    (50, 0.85, 2, 0.15, 2): ('cycle', None, 3, 7, '94f30edbb9dea1f177f861b0c9c85addff43f52eb0b5fc445611502335c99cc1'),
}

# (n, config seed) -> the CONSTRUCT record of Config(seed=seed) on
# pikhurko(n), whose part A0 has no absorber, so every family build blocks
# vertices.  Computed from the family build that rescanned every blocked
# vertex after each added tuple, under a cap of 4n + 64 rounds.
CONSTRUCT_PIKHURKO = {
    (24, 0): ('failure', 'connect', 3, 2, 'e6c8a9088d36320f7b0a93c47463a6caa9dd928dd19c4591a96a04f11645d572'),
    (24, 1): ('failure', 'connect', 3, 2, '6bcb9d23c90a884d876415c69f149e0eeaa1653fedfc150e4a2bc2a8ccaa5797'),
    (32, 0): ('failure', 'connect', 3, 2, '3b49535521fadd77782422cae8df9f0ac9534ab62487401df1e4a4020ae272f6'),
    (32, 1): ('failure', 'connect', 3, 2, '8ecdae8cd7a6d84b37080f496822469c4533059d2ad0dbdaddb815029072a928'),
    (40, 0): ('failure', 'connect', 3, 3, '2a41669a5612cf059ae5cefaf6e17d5455f57fdaba41fc8fb6dab35fea6b8bd1'),
    (40, 1): ('failure', 'connect', 3, 4, '252b7345d7448bffd55f5f22146304f7eef53c628ca3379d59cd1f14c5b7a001'),
}

# (n, seed) -> sha256 of the stdout of `hypersquare absorb --demo --n n --seed seed`
# after its manifest line; the manifest is checked on its own
ABSORB_DEMO = {
    (12, 0): '1100a1349356a15eed0b6f26ce67f30dd36ee50c6971833a0587c78c1f4e891d',
    (12, 1): 'da78d6f39216319bba5ec1bc17f031b1abe538500b4e86eb7446473894a6b78b',
    (12, 2): 'd5e76ab96c78f980f739ce5a1e31abde3fbd1bef7b72015953f0e85554c7861b',
    (12, 5): 'b3b655c028057c75ff46b03ab5f8deccf80b9fc09f651831ae0982abd010b4c0',
    (20, 0): '8e2db5c470f6e8052a0cdb7a9edcf825e50ac09df9b85e48b6eea574ee418b6e',
    (20, 1): '74285aba65b3672e8c0bdcb4e7fea464ba14821ff21601697742735b48033514',
    (20, 2): '0e573c14865deba6dd8b153d9d62a45611cd2aac15163d3cda91ef0fa1811eb1',
    (20, 5): '76c91cae07e8cd52c77acee0c969736bfe031e48bd40c53cf6b7d09a26aac6dd',
    (30, 0): '0a2c27e7ad02d852fa4331ae6a46c5736e9ea970563e49be3f501324c8997f4f',
    (30, 1): '116cffda5adcff6cd221de39f6c4e9a8b05796ba4bc7383eb694213893b95d3e',
    (30, 2): 'b54b9ef1fd9524fd9c6679af26add8e0c9a548effe56f6cc79018a43125c38a9',
    (30, 5): 'ae3dfe662d9b28e331d11ac3eeb14a9e5e14e87bc721bfd258ce7cc897c7666f',
}

# (argv, instance piped to standard input or None) -> sha256 of
# repr((exit code, stdout)) of `hypersquare <argv>`.  The construct, tile
# and cover cells set some of the config flags their code reads; two aux
# cells are usage errors.
CLI = {
    (('gen', 'complete', '8'), None): '20d807b080294ba91824849e1cc94bc08257030ac250610a091ca5e4c6efa2ad',
    (('gen', 'pikhurko', '12'), None): 'fdc83ff42c4ba25462a5711077e5c6017f3349a3a5fc3dcb0ed247301c4b2446',
    (('gen', 'random', '10', '--p', '0.5', '--seed', '3'), None): '1feb4ed1a483f10ed87ae99dd2fb025e247f397918167991c19d832725f71b60',
    (('gen', 'dense', '14', '--delta2', '0.8', '--seed', '2'), None): '80c3d7bdd1261b609986ad1410f9dd11b9d476b6eae3329c1e3791f2414bd4a6',
    (('construct', '--seed', '1', '--theta-star', '0.3', '--cap-m', '10'), ('dense_random', 40, 0.9, 1)): 'd061f4c5278f747c264040b9b9ed49747e83d39aea00b060f0115880c955f576',
    (('construct', '--seed', '0', '--q', '4'), ('dense_random', 30, 0.8, 0)): '180fe70d7d205009abc7615e92f9c12b4ba28524b1ec30a257c34906a6ed23c1',
    (('tile', '--seed', '2', '--alpha', '0.1', '--tau', '0.05'), ('dense_random', 30, 0.8, 0)): '2a3401e4b9da3548cd7ded6e0b90af8bd7ea966ed48c1ab198d3b3d1b57533cd',
    (('tile', '--seed', '0', '--tau', '0.2'), ('pikhurko', 16)): 'ef7972afcac484e25ebf4d6745b26fbfc89573a77306d14389d42d3dab62ae13',
    (('cover', '--seed', '1', '--q', '4', '--mu', '0.3'), ('pikhurko', 16)): '2d305b22570d94c8ccb15efd10b1f3c139d9650670a7bb264af35312e0fa8a55',
    (('cover', '--seed', '5', '--q', '12'), ('dense_random', 30, 0.8, 0)): '73d769b4b5754814391c6d15eeaf7c074156ca11366fbe21d682433362d7156f',
    (('oracle', 'cycle', '--json'), ('dense_instance', 12, 0.6, 1)): '302d09aed400243eadc3866eab2afec7da180d25790df1b006b2140d8daa2163',
    (('oracle', 'cycle', '--json'), ('pikhurko', 12)): '75f954418afad245198289c4d559f49b9bbfcae7ced90b723a199b854c2f716b',
    (('oracle', 'tiling', '--json'), ('pikhurko', 16)): '72ba237e9b861678817c94d21a7a9607b6e4d52a58835120d990a8b349315e42',
    (('check', 'cycle', 'C 0 1 2 3 4 5', '--hamiltonian', '--json'), ('complete', 6)): '50ccdfdb72b122ea60a9523c3bf3be20998882b44bcb0d95b118349bb4919af9',
    (('check', 'path', '0 1 2 3', '--json'), ('pikhurko', 8)): '9bb25dd8e66faa0b34613b22c6d04294c29e0e5a1a27894d1364d0e910eb9f94',
    (('check', 'walk', '0 1 2 3 0 1', '--json'), ('complete', 5)): '3be60bbf9d285c6a592dd3439201a760e3e4c141d31cc8d0a9d2c5e72802a8d6',
    (('connect', '--from', '0,1,2', '--to', '3,4,5', '--json'), ('complete', 10)): 'cf8eb53a36295313c26b70bb3c81a456fc7b11d1fa856fd04d7d95fed905bc2d',
    (('connect', '--from', '0,1,2', '--to', '5,6,7', '--cap-m', '4', '--forbid', '8', '--json'), ('dense_random', 14, 0.5, 0)): '9040ee2bf383732a8f55f2ac5cf91f396751d45cc3a6a5140538cbdd61e632e5',
    (('probe', '--n', '8', '--grid', '0.7,0.9', '--trials', '2', '--seed', '4'), None): 'f29ddaaa5781e7700dfa513869cb20a321f371e1e49f7bfaca428016cdf4fe7d',
    (('probe', '--n', '10', '--grid', '0.8', '--trials', '3', '--seed', '1', '--no-oracle'), None): '09b65b5a52443cfa10e9ce0777f4d8314765b2dfd0ae3471dc044e77121e3a48',
    (('aux', 'g3', '--beta', '0.05'), ('random', 12, 0.8, 3)): '561b985be367202d79d8d8227c050b569824520f74fff6b217e0daa52ef55c63',
    (('aux', 'g3', '--beta', '0.1'), ('pikhurko', 16)): '29cf17740f94436349398b38becc442dee26a9b16cad0a36cd4bf77195d26e86',
    (('aux', 'gv', '--beta', '0.1', '--v', '0'), ('pikhurko', 16)): '58f9aa65d97e1a32c27b89eb0cfae728be7aee093ba4a0e0d867a1a6e57a22ba',
    (('aux', 'gv', '--beta', '0.1', '--v', '11'), ('random', 12, 0.8, 3)): '388a7d73eb1b7e205584e75ebd2055a98c521fbf15ebdbe96d8fa55fdddd8a4f',
    (('aux', 'gv', '--beta', '0.1'), ('random', 12, 0.8, 3)): 'e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a',
    (('aux', 'gvw', '--v', '0', '--w', '5'), ('pikhurko', 12)): '9b159b6fef04c4e667eef901cc373a2d629d8d9e703607c8d5ee06fbc81fe5d5',
    (('aux', 'gvw', '--v', '3', '--w', '3'), ('complete', 6)): 'e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a',
    (('aux', 'walks', '--v', '2', '--length', '3', '--beta', '0.05'), ('random', 12, 0.8, 3)): 'efde8b51fea443c90aeced5c8aec3b80f530efef4666ce793cbee6fe12e4b376',
    (('aux', 'walks', '--v', '1', '--length', '4', '--beta', '0.2'), ('random', 12, 0.9, 3)): '806059cbcda62ef5527f5c1c859cc7558e26fdf46daa4d2d056854d06ed7ed92',
}

# Instances for the tiling digests: ("complete", n), ("pikhurko", n) or
# ("dense_random", n, delta2_target, seed).

# (instance, threshold fraction, seed) -> sha256 of the tiles of
# weighted_tiling(h, range(n), classify_pairs(h, ceil(fraction * n)), seed).
# The dense_random cells make the split moves fire: a K4 giving two vertices
# away, a K3 dissolving and a K4 dissolving.  On the 12-vertex dense_random
# cell only the full 48 restarts find the tiling.
WEIGHTED_TILING = {
    (("dense_random", 12, 0.5, 3), 0.6, 1): 'baa37dd5aed562388cf435d77fbab53260ee701b2ceb6cee32c720ca1cbd2690',
    (('complete', 12), 0.8, 1): '0b723340026b11dba144550130596634237d004551d0ad71ae202afe51741d8e',
    (('pikhurko', 12), 0.5, 0): 'f87549538c260ee7678061e4a81cfa025cc78e052b96be03f4a0811d303f2093',
    (('pikhurko', 20), 0.5, 3): '89606e62883b0e1443f72a5ad759bdf8bd5659fee6918e7f224767ebcabcb8d7',
    (('pikhurko', 20), 0.7, 1): '4ed5385b8fec37c5f92e40a49c913a596c2a83d4c08dc833989e8d29c7332a35',
    (('dense_random', 10, 0.5, 0), 0.4, 1): 'ff16cb0d38df76d3af5fab4413ab6e22e7438c2c3768c841fb4f86c7dd519e9e',
    (('dense_random', 10, 0.6, 2), 0.7, 1): 'c863626d0a595c98e99a8789dfff87c5d7b60f37af073b30ac181d487ac38e37',
    (('dense_random', 16, 0.5, 2), 0.6, 1): '04c55d8c0b48323d220b1c877d3cc8159d341d2eaafcc67804b788b2750d00dd',
    (('dense_random', 24, 0.6, 1), 0.7, 1): '0c8da8484e3b4bb5e5cb3a5a32af51c8fcb256d21a27164e901be8499182aef0',
    (('dense_random', 30, 0.8, 0), 0.85, 1): '4c41afd7128d390e71f6f0395534b81ba993445d54a313463898a4e2a7b4e571',
    (('dense_random', 30, 0.8, 0), 0.85, None): '5b04c0b9d815b5f0749edc8f0dae24c984c9e60c0fbac48059d4fa625da1ed28',
}

# (instance, config seed) -> sha256 of the k4 tiles, leftover, bound, tiling
# and pruned set of almost_k4_factor(h, Config(seed=seed))
ALMOST_K4 = {
    (('complete', 16), 0): '65478c1eab1e96b821a23ad707fb31dd5383ebbcfce77d59ed653c8264ca1fcb',
    (('pikhurko', 16), 0): '4def6c208c5f8f52deebab30bbbf3072f5def3c9174b23d7c56d349f405e6d7a',
    (('pikhurko', 20), 1): '7167b5f10f6c9faa762c5a78dc74d193030c75350d0ddf6078f5c349dfebb9dd',
    (('dense_random', 30, 0.8, 0), 2): '1fdc757eed12c7423e79aeaa49d9059268584403c50387aa8bd140d98826d41d',
    (('dense_random', 40, 0.7, 1), 0): 'ee543435525aa47a821fcc9ae493341bbf386808c1c09090b7e6f161d11bc59a',
    (('dense_random', 40, 0.7, 1), 3): '5daff7870da2aef5e5d070731a102589d2e52d395909ac8c18937faabd027250',
    (('dense_random', 60, 0.8, 0), 0): '5495b6f4db11d6e47f4db4b4b60a5b7f8d9c1c5dc632522c0ef591f9b5a11186',
}

# (instance, q, mu, seed, domain step) -> sha256 of the paths, uncovered set
# and bound of cover_with_squared_paths(h, q, mu, seed, domain=range(0, n, step))
COVER = {
    (('complete', 16), 4, 0.5, None, 1): '814be559d64f22afcb5c0a67d8954ca39e88eee5517a3045a1c2744e59841a0a',
    (('complete', 16), 8, 0.5, 3, 1): '51386d1cca95fe1d873d5ad2377e6b6e9fb031ca6f41612dd73e5ab0ff66e726',
    (('pikhurko', 16), 4, 0.5, 0, 1): '18ac956819cbf4b392712ae9e1bb5f183d710540fb82002a1e6369e98115de0f',
    (('pikhurko', 20), 8, 0.5, 1, 1): '6d69ea743e8a92b0c196972db26be2811e318bb504c4266a760f3967f2ae23e5',
    (('dense_random', 30, 0.8, 0), 4, 0.1, 2, 1): '7253ece8a1473298e7b39db0972ee1e1f02aacd9da5407e1d3852a8916ba70bb',
    (('dense_random', 60, 0.9, 1), 8, 0.1, 5, 1): '5a5ccb2752fa4b77e779772d94d3aff334a4e656c8b9b06d4be7f662f537c74f',
    (('dense_random', 60, 0.9, 1), 4, 0.1, 5, 2): 'cab0b123f9d3501cee924096348545e0ba87ea59efbc3e9842f535f55ca54ba9',
}

# Instances for the oracle digests: ("dense_instance", n, fraction, seed) or
# ("pikhurko", n).  sha256 of (status, witness) of the exact oracle with no
# time limit; a cycle witness is hashed as its vertex tuple.
ORACLE_CYCLE = {
    ('dense_instance', 7, 0.4, 0): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 7, 0.5, 0): '36083714d26578a8f7938cabc6e2947e18d3d7dcafe3cd7b4d601dace7d0d6c9',
    ('dense_instance', 7, 0.5, 2): '53f01e48d958f0899721466c35780ade9237ece0ecfc1f00f4634f3a61517ed8',
    ('dense_instance', 7, 0.5, 3): '6be4de5d702b9cf869ee487d254646a20f05867f161c982937b17c080b82239f',
    ('dense_instance', 8, 0.4, 0): '120984c10003864dbf8ba56e2a07982e0722481350923ea0aa86f0fd11c4fb04',
    ('dense_instance', 8, 0.4, 1): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 8, 0.6, 0): '0313aac7b8057aefa1c23182dfda083e71e62d4d9cfe836ed62ce0f7edd8be6d',
    ('dense_instance', 8, 0.6, 2): 'cc8939b4e7c3868495350280ffdab1250bf9836c9fb985bb95119db8d5d24bf1',
    ('dense_instance', 8, 0.6, 3): '3fbdda30a0d6ee1f77c1530fa9f985c4d2cee179452e817377cf4c9864411d02',
    ('dense_instance', 10, 0.5, 0): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 10, 0.5, 1): 'ac2bf1870beed30cb4e035b74ed1acf432ddb71b4344116c6ac2c6d3ba052e1e',
    ('dense_instance', 10, 0.5, 2): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 10, 0.5, 3): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 10, 0.6, 0): '8101dd8500c1686827ece9d924cd3b853385b8f273c1535b9ba58510dd1eaa13',
    ('dense_instance', 10, 0.6, 1): 'd4ab93cb9dddd4a6ace5c1639570b787c7aa91a15cbc258fab62f0e34aaa0107',
    ('dense_instance', 10, 0.6, 2): '9757574cb0633db0019886a38f5330f86b85bed9a2c55dd53c1e9ee9d104300a',
    ('dense_instance', 10, 0.6, 3): 'fcf718e365f17b641b661c71bb106fb5d12670d9c2bf7c3bdabbfc5badc56bce',
    ('dense_instance', 10, 0.7, 0): '755aa018eec6bd26a410ce785d0777bb55f2b2d74016391c0ce0964ad62ffde4',
    ('dense_instance', 10, 0.7, 1): 'bbc3c5ae38291d07cf89d90346a1bc33bc84c6a4f2923a9ced44b52928bcbb53',
    ('dense_instance', 10, 0.7, 2): '70a7ce9ccd818a0ea2196bff3de383abee5daf00cee5a128058cdd1f55078db1',
    ('dense_instance', 10, 0.7, 3): '648ca1dd41fc18feb6223e83aa3a00f677275fc083667d5dbac5ba845b977d27',
    ('dense_instance', 12, 0.5, 0): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 12, 0.5, 1): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 12, 0.5, 2): 'c7b226959c0b49353af38ae551e8f2002313a5f8e50817698f3270964062e70f',
    ('dense_instance', 12, 0.5, 3): 'd9dae8bb76716e8ea537e893d067434426fda822cb89210c4a38888edce1bffc',
    ('dense_instance', 12, 0.6, 0): '50645faf62dd2f8207524462fc47f622003f82458e649a271807dd1f3fdc4a66',
    ('dense_instance', 12, 0.6, 1): '9638834ab04df53162ee66a50e5ddf6d50febe08406f08db7d65d009a4a80c11',
    ('dense_instance', 12, 0.6, 2): 'a1e241d494a773e8a9435904b0c56ab128e1b66ab2c523fc7069f9cad278e985',
    ('dense_instance', 12, 0.6, 3): 'b78e0b69c13b4941a335bde8aef67f72e03bd23c3d438677d4b33807f484f528',
    ('dense_instance', 12, 0.7, 0): 'ea255cb68449bdf50045aebd65711e8dc2ed218e13d7e0ba4967895d859cbcc3',
    ('dense_instance', 12, 0.7, 1): '95fa13b75da68e25cee47c08e69218000c54918b9e437511b0dd757c58971055',
    ('dense_instance', 12, 0.7, 2): '541a18a058a85c2e545fe746d6c66431b44b042590c5b97ae3a286ea153d40f2',
    ('dense_instance', 12, 0.7, 3): '327f379657dd3a71373f36ce6b9a2994fb1853ea4aa46f1a81786b8ef5ab7348',
    ('dense_instance', 14, 0.5, 0): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 14, 0.5, 1): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 14, 0.5, 2): '0baadb303907cd37ad10163debf4881aef8d167fa92657132c8bfc51b8287af1',
    ('dense_instance', 14, 0.5, 3): 'cc3d55228c2f45107b295342d8e4370bca6b0a9f68d2ba0de22a6b5353920e90',
    ('dense_instance', 14, 0.6, 0): '0e5e77f5a9df3d092c2abcd014aca45896c67c2c7a23789740a55f271607c6f8',
    ('dense_instance', 14, 0.6, 1): 'd668d3edbe4f0eebdc076452a8559503bdac12078371c244c59d69356765acd9',
    ('dense_instance', 14, 0.6, 2): '7a000beb40756df69e4ecb32fba51f8132c79cb50a6dcf8ac72303ac93e66e8d',
    ('dense_instance', 14, 0.6, 3): '9fec6dc8d9477a979dad09ca387655a8667eb5f72462a2ea4b7db6e580e4b5be',
    ('dense_instance', 14, 0.7, 0): 'f703d1e281878fbcde1c66c296fabcd2b5a07d1f876f93fa2947d7c454ebcacc',
    ('dense_instance', 14, 0.7, 1): 'ab0f45120871dc8d7f742dfaf985ac07b82364581c4d14d34d18e76af8f11264',
    ('dense_instance', 14, 0.7, 2): 'c3610a9f311d6f788c98472b09b0dca33d3e9c0570d6e5dc13d71418f14ea7e5',
    ('dense_instance', 14, 0.7, 3): 'b26e9fa34c0d8d96c59f480ded3898f915893141a878748a4dd22e4c2ec51078',
    ('dense_instance', 16, 0.5, 0): '58e3d21510cf18da30323cabc405f1f54528b62e9dc38d2c9b5f3b110f2c91c1',
    ('dense_instance', 16, 0.5, 1): '3aec1fc4088ca6fde65b6b84c6dbab6550f855125bf97b96ecbef26b0ec461d3',
    ('dense_instance', 16, 0.5, 2): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('dense_instance', 16, 0.5, 3): '7517069decbfe4c0b55bd8a351397aa646fcca74dbaed028e2d915dee3d9b64b',
    ('dense_instance', 16, 0.6, 0): '0119dd14c14c57970a54b74791d65aba5610b6d310e26625166047ef79f68e3a',
    ('dense_instance', 16, 0.6, 1): '0c239d93468dc749fd33d1d3f9624ec2f422b99343fc6d9df8b48e5d0204db31',
    ('dense_instance', 16, 0.6, 2): '09d1240d23df920ade1d5a206b4f4f46c6bc2f16b3840f5e2cc9256b32432706',
    ('dense_instance', 16, 0.6, 3): '3d53a84fea201dacd86a7f22fdd0e2844d41530edca8aa875530ee9a0df09431',
    ('dense_instance', 16, 0.7, 0): 'd847e0b8059390e0c4851fc2addc5a1995fed1284719d08a5c4f5cff1f3560ab',
    ('dense_instance', 16, 0.7, 1): '1ba2d0558062e7120cb2681b810bb82a48261a06354ae7c5d6920e4c87faaca2',
    ('dense_instance', 16, 0.7, 2): '4f74b03fdf028e80db4bc5dd869141e3bb30323f511c292b7904a6e71edc774d',
    ('dense_instance', 16, 0.7, 3): 'eee318726fd9aba2c1828985146a62ddae31fe1fab25e521fbaf610d5817fa2b',
    ('dense_instance', 18, 0.5, 0): '91766e7faaa708dfb9ef794310c50a6df55f5042eeb15535675b5a9e50de7b59',
    ('dense_instance', 18, 0.5, 1): 'f89565a728b932637abdee5bdcaec9941e98f54d47fa2ab47444203c4ead9a23',
    ('dense_instance', 18, 0.5, 2): '1d245ccaf378603e74786bef65af00be1618ba3f958a0a4c645b4736895b832b',
    ('pikhurko', 8): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('pikhurko', 12): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('pikhurko', 16): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
}
ORACLE_TILING = {
    ('dense_instance', 12, 0.5, 0): '5634ae3d52581b51baa371417dc0a108b23ea98dbc95e0151f0836e3910112a5',
    ('dense_instance', 12, 0.5, 1): 'dac9dc22c2975dfb68ad4f845bc1879f48a0115d9a076268dbbacf86e35b7d2c',
    ('dense_instance', 12, 0.6, 0): 'efc83448f7626c2cfd6ea3ff2849325faf5dfec1d31a02b7ac1dd6b25343caed',
    ('dense_instance', 12, 0.6, 1): '18a44c5e62d5a6abbe7fb185c5989190dd15f002dbcf4b8319fbcbdef6ccb1bd',
    ('dense_instance', 16, 0.5, 0): '6a2d99cb100de3ab133ccd77c79240387aab2a8c2408ea97209ab143540b8c7d',
    ('dense_instance', 16, 0.5, 1): '8c6a631e1c7e74ea4eae4afa0351b6c30b24ae1159becec3f15efd27aec1581a',
    ('dense_instance', 16, 0.6, 0): '711ce244b5f660d9ac13d387d965b444c7db11c191f6e5bbeddfec54bcc8da0b',
    ('dense_instance', 16, 0.6, 1): 'bb1effd93ca642a2db52690f1d2a529ff0fbc92f13a00ef60c6bfa7e7ddd2d19',
    ('pikhurko', 8): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('pikhurko', 12): '50516befda8c0f6be9f4148ccd6f83972083c9b921db38ccd31b986fa2a3a7b0',
    ('pikhurko', 16): '8ec32b4ed51d81576ae09dba95bf4b259a2d81f51e522ce70c1134bad300dbad',
}


# Instances for the auxiliary-graph digests also include ("random", n, p,
# seed) for random_hypergraph(n, p, seed).  (instance, kind, beta, apex) ->
# sha256 of (vmask, edge list) of build_g3(h, beta), build_gv(h, apex, beta)
# or build_gvw(h, *apex).  69 of the 130 cells give a graph that is neither
# empty nor complete.
AUX = {
    (('random', 7, 0.9, 1), 'g3', 0.1, None): '0464df71fdc2a668f8a1b9504e23dbe47e049988e8cef590e7bdb97ea569742c',
    (('random', 7, 0.9, 1), 'gv', 0.1, 0): '29e51fee377fd11c691022cbc155e3f10ea751bc2d765bb7f20c271cc3a706d6',
    (('random', 7, 0.9, 1), 'gv', 0.1, 3): 'e04ff1ab76a83adf65792e4dc417aa93edc30e3dcd590f930954275a0845f804',
    (('random', 7, 0.9, 1), 'gv', 0.1, 6): '0af30960c3ae7391d5162b4b0236350f1f8d3f2fa264b0e763c1c2716ad688fe',
    (('random', 7, 0.9, 1), 'g3', 0.2, None): '44e0acd70e293da1eb9499964d9c196307cf68d9cac310ec6276fc356559faa8',
    (('random', 7, 0.9, 1), 'gv', 0.2, 0): 'e70f9644ac17d21efef23be1539dca7cff2a338fe6c375e1b0eeccbe3973aff2',
    (('random', 7, 0.9, 1), 'gv', 0.2, 3): '713c8149099dfcb2e79c6ab7f3813541d0a912d3695c07dd913819ff254f2ab0',
    (('random', 7, 0.9, 1), 'gv', 0.2, 6): 'ce0ab13d4e02dfdec827d4359dbe8d5d85c3a5d661f4665a6671e19d489c5e33',
    (('random', 7, 0.9, 1), 'gvw', None, (0, 1)): 'b9171e70cc6c2596366fba1e2d8ed9797c2970f5da8926b05732a600730bf133',
    (('random', 7, 0.9, 1), 'gvw', None, (3, 6)): '78a55ceeddbfbee41d7055b6dff961849ff162016eeabdb9a30f9930803da7c8',
    (('random', 9, 0.85, 2), 'g3', 0.1, None): 'cc0a5347ce21a4b088ce648cdca4df8b4a55553fc6ab012fff0cbfd1ab7cde4c',
    (('random', 9, 0.85, 2), 'gv', 0.1, 0): '3b1bccf38402f4e93151c0e99bc89eecdfaa34a36f901b2957908088f01b5198',
    (('random', 9, 0.85, 2), 'gv', 0.1, 4): 'd3ebc186e6a094653a124fac07fee0ae147a38893e84ed0d1adaedfcb83f5173',
    (('random', 9, 0.85, 2), 'gv', 0.1, 8): 'f958149c402034ce23dd446f19823f9ca564f1572bedcc652422b85b39f5a91e',
    (('random', 9, 0.85, 2), 'g3', 0.2, None): 'cc0a5347ce21a4b088ce648cdca4df8b4a55553fc6ab012fff0cbfd1ab7cde4c',
    (('random', 9, 0.85, 2), 'gv', 0.2, 0): 'cec4fe6c319c73bfabc57a6ecb97f83676238000cd652a2a6a9c5230dc71348d',
    (('random', 9, 0.85, 2), 'gv', 0.2, 4): '27f5b884dac062eafe0ae0e61400b98705052c16d48c596f072ef8f4ca4a43ef',
    (('random', 9, 0.85, 2), 'gv', 0.2, 8): 'd09aef533a2e07973615b75a92916f8e1c468f5ad063899f97328ccbca5bbb90',
    (('random', 9, 0.85, 2), 'gvw', None, (0, 1)): 'e1271792624a35d5b561486b179e24e4045c5ee124708826399ff32dca8d8cc1',
    (('random', 9, 0.85, 2), 'gvw', None, (4, 8)): '27ce7fceacc812c2a35e1ef003bb7d5473a69fa43f9479a998ca5ba934c70840',
    (('random', 12, 0.8, 3), 'g3', 0.1, None): '4860cbe6b6996171d7708bf9dbd5a6fcd0cb67ec6cb9ca5621972d732b862c3a',
    (('random', 12, 0.8, 3), 'gv', 0.1, 0): '6c84de9b7d1e38820dde86871bc2b5237d14772e805028b5b95a7b40eec6cac3',
    (('random', 12, 0.8, 3), 'gv', 0.1, 6): '658468dee0551e6186c2bb0e11bd483634018b50e3c4b9febe5fe8524aed5a7f',
    (('random', 12, 0.8, 3), 'gv', 0.1, 11): 'e1416f6737f1d038af6d93694093ad523e1710a72adc1fd9f360f9455afa8857',
    (('random', 12, 0.8, 3), 'g3', 0.2, None): '55e7766ae67c2ce21f0cc439fd035128bc28ae59394f844b90fb6799aac3638b',
    (('random', 12, 0.8, 3), 'gv', 0.2, 0): '5a801be89afc631dbb80a8456a89979d8b9326ed95ca7e5072dd89a3032e8469',
    (('random', 12, 0.8, 3), 'gv', 0.2, 6): '793956ffda4c3c00bbc5f3abb5d9a218023a79be4346c777900587b13356d9f6',
    (('random', 12, 0.8, 3), 'gv', 0.2, 11): '18c416ed1f98a7fd1ee66feba01b85b3e1db36f2f0236bd95a897eaca5c29899',
    (('random', 12, 0.8, 3), 'gvw', None, (0, 1)): 'c32d8e3c11cd742393d8c00118cf912c4be379dc4f0e6f29e23eb0181995b61c',
    (('random', 12, 0.8, 3), 'gvw', None, (6, 11)): '793782a497387aec85589b10be8126f0f3a2451bad2fd6048ce85a49af801446',
    (('random', 16, 0.75, 4), 'g3', 0.1, None): '57d4d7c33060beb24f764cd3e753398aa0a53cc55ce6ed53f347b310e7d2d43a',
    (('random', 16, 0.75, 4), 'gv', 0.1, 0): 'd7621475f2d21ffece6077217c145ad8df7cc2629d4bf9e02916c7d9a1b6da95',
    (('random', 16, 0.75, 4), 'gv', 0.1, 8): '87403ec4235a87a19ccb9f6ab240375c360c6f2e63311656eb6aaf6cae812eef',
    (('random', 16, 0.75, 4), 'gv', 0.1, 15): '5d7a0ccdafb8eb0d6a37ae3b20b133be00bb4986e92611c64685798ea3d06d01',
    (('random', 16, 0.75, 4), 'g3', 0.2, None): '57d4d7c33060beb24f764cd3e753398aa0a53cc55ce6ed53f347b310e7d2d43a',
    (('random', 16, 0.75, 4), 'gv', 0.2, 0): '082f046bce47ef57f8b1c7938191363169050e78f32f1f316a2e0554c12e01e5',
    (('random', 16, 0.75, 4), 'gv', 0.2, 8): '13bb4cee480556cfbaaf906e854bf1e67d03863646ef3c290812fd98cf7a3817',
    (('random', 16, 0.75, 4), 'gv', 0.2, 15): '22d7bb935e4210f658335da36732e9b417ab5c6185f5407344fbbab3dcab52aa',
    (('random', 16, 0.75, 4), 'gvw', None, (0, 1)): 'a631623b2d8db2ec0e3b0274946f8846ac20efaad1e36dbbbc0c3aa6cb81fd36',
    (('random', 16, 0.75, 4), 'gvw', None, (8, 15)): '7de7116e4d979f5fd89d98156ff7e7f6db855d437d07f14556dfcbe6190eb688',
    (('random', 20, 0.8, 5), 'g3', 0.1, None): 'd0f246e9a413551c604ba5f2bd742919e75b996894d7bb98bc73f663e1dd0aef',
    (('random', 20, 0.8, 5), 'gv', 0.1, 0): '44ab19cdef622e537d02b79422f42353a0d411c44a559c498e778f1d5fc7a112',
    (('random', 20, 0.8, 5), 'gv', 0.1, 10): 'bfe80554faf4f7bc2d4627d5c3e03f5092b57829a68b5a0beafff7848d0de8ee',
    (('random', 20, 0.8, 5), 'gv', 0.1, 19): '22cf153138bac8de067b1b51bea9807f4128457028fd8e574101459b1d6a8f87',
    (('random', 20, 0.8, 5), 'g3', 0.2, None): 'd3230f25afc2d7989aa74ef32fd6ce31eac6832ce6a2620c93c84cd7ba33463f',
    (('random', 20, 0.8, 5), 'gv', 0.2, 0): '7251fc0f73dc8e19b881913c1a348eb392518fa775a385732725f0d63e4429d4',
    (('random', 20, 0.8, 5), 'gv', 0.2, 10): 'ee43db94c138d4e96dd2601b340e7553000fdd71f1f1ba1a68c3bdeeb1aa302e',
    (('random', 20, 0.8, 5), 'gv', 0.2, 19): '56651a449c31c84d05f1a3bff6489146650378b7f7a9c637b807b12169aa5281',
    (('random', 20, 0.8, 5), 'gvw', None, (0, 1)): '32f15fb32499a7cccf77f40cd5dbafd4f45fa612bed9c6e7b1fe450a4759aca8',
    (('random', 20, 0.8, 5), 'gvw', None, (10, 19)): 'f0d74df913f75ebc62ad22f21eeac3c5fa1bd1043b590a2a1503671bbd346be8',
    (('random', 25, 0.85, 6), 'g3', 0.1, None): '1283ea5d1a1e9d2c547fa5c43b60addb5bf47bf83816fab9d387f4f03aee9d46',
    (('random', 25, 0.85, 6), 'gv', 0.1, 0): '9c3ea87f4f61a92ef98ccbf859254c57266d431ecd7b85d959b819f6c9655b14',
    (('random', 25, 0.85, 6), 'gv', 0.1, 12): 'bb4e5909403b88692d5ed3fa27fdb88ad9a24cf94869583259539d73b163a53e',
    (('random', 25, 0.85, 6), 'gv', 0.1, 24): '1fa9f0a7e019f25984bac88d66e1c25ca241aaa512464adcbaf8bdf4755a2db0',
    (('random', 25, 0.85, 6), 'g3', 0.2, None): 'b99dfaa3b3b385551521009ff2d64d64ecd6d54d526e104178be6cec5908b3d4',
    (('random', 25, 0.85, 6), 'gv', 0.2, 0): 'f93c9779059535b68e65739fbbf037c1d0a970a0afed77b4e5f6489ebbaf74c5',
    (('random', 25, 0.85, 6), 'gv', 0.2, 12): '8aa81fcb90738379a5250a6ce1f238547537cf9b9762973255ec04c15438f68c',
    (('random', 25, 0.85, 6), 'gv', 0.2, 24): 'de68f5a4a305dcc387687cfe378d69325dfcaba58780666658527a925979f3fe',
    (('random', 25, 0.85, 6), 'gvw', None, (0, 1)): '81bb6c2e0ac3a284913f461fd01ec5129fe908b945338b2a612d3a44074dd01b',
    (('random', 25, 0.85, 6), 'gvw', None, (12, 24)): 'de24bf488374b77eccf4a64f9f3c921622f51312b5c59df2e590d79bd7a42285',
    (('random', 30, 0.8, 7), 'g3', 0.1, None): '01d1851c0cf8341c29be9c4ef98cc8127067aa1ef52648a589735965c46a9ec8',
    (('random', 30, 0.8, 7), 'gv', 0.1, 0): '9b672b0d81ccf485cd106bcaee11891e81c6359ba8d6241d69efb93ce349ca96',
    (('random', 30, 0.8, 7), 'gv', 0.1, 15): '6d8f3dcdb76a3f688103259a744a000518b25e515564e10c230c4edb32650075',
    (('random', 30, 0.8, 7), 'gv', 0.1, 29): '91f6415498f16f4926c029505120b1df965782557e8c1952763cb108b2df30cb',
    (('random', 30, 0.8, 7), 'g3', 0.2, None): '07bbb200358957154c0bf0580a42fd0dad0a6d7293adf04d34c6e72b035bc924',
    (('random', 30, 0.8, 7), 'gv', 0.2, 0): '99443ae20a856205f1d0ffa0d02f67219dd7372e04c8286f15a115cdf35d5def',
    (('random', 30, 0.8, 7), 'gv', 0.2, 15): '1341271e971cdb1ac15ba789cec1254356c2790236c32454b44b02f4534dcfdf',
    (('random', 30, 0.8, 7), 'gv', 0.2, 29): '52619429760fb36490f00c027ed4c8370c01bc36e2d44aa26a774df5ea3c21fc',
    (('random', 30, 0.8, 7), 'gvw', None, (0, 1)): 'a441dcb30e5f5bd8c3ccd212be149ca5569c5482a4d8ec50a5f57a5213540945',
    (('random', 30, 0.8, 7), 'gvw', None, (15, 29)): '25218c946de46301c4849880673c6c03bd26b5cc93f255f7f1b9aa344f594c1c',
    (('complete', 10), 'g3', 0.1, None): '7cdd2af437862eaa7b9a65108cf3e1102408c696ab341d53d3492f9b1fa99eb9',
    (('complete', 10), 'gv', 0.1, 0): 'db3a0008e8b0f22eff785bab854a81fd7d2907e14845a0727d82b37b907a9da7',
    (('complete', 10), 'gv', 0.1, 5): '97c036b6ddae62c303f6cecc76a46c8f9cc0e92484727bcdc5f95b107d942dc0',
    (('complete', 10), 'gv', 0.1, 9): 'f2f400d318ac764714f34a6dd94d150c70158d10c52b18006fec72f3f79b9b20',
    (('complete', 10), 'g3', 0.2, None): '7cdd2af437862eaa7b9a65108cf3e1102408c696ab341d53d3492f9b1fa99eb9',
    (('complete', 10), 'gv', 0.2, 0): 'db3a0008e8b0f22eff785bab854a81fd7d2907e14845a0727d82b37b907a9da7',
    (('complete', 10), 'gv', 0.2, 5): '97c036b6ddae62c303f6cecc76a46c8f9cc0e92484727bcdc5f95b107d942dc0',
    (('complete', 10), 'gv', 0.2, 9): 'f2f400d318ac764714f34a6dd94d150c70158d10c52b18006fec72f3f79b9b20',
    (('complete', 10), 'gvw', None, (0, 1)): 'dd03055bee7fc09c4bde556b6217eb874c593065adfb2d305f0762977feb8776',
    (('complete', 10), 'gvw', None, (5, 9)): 'c321e658bc3729170286c5aafe981c0a591f649ec418e1431bb4d81525da5bc9',
    (('complete', 13), 'g3', 0.1, None): '725cc763495bf6df8784b12c48f36e5aa2ed2c22858a3703260d5c6ce8750352',
    (('complete', 13), 'gv', 0.1, 0): '14523cfe627c1f4d95258da1313a0fe16458dd6276ddb1fdd5eb4ce0cb765038',
    (('complete', 13), 'gv', 0.1, 6): 'f02eee5dbbc11e674cbeb8ad115eca10030b7395495fb8505dc5c3c95a6036f7',
    (('complete', 13), 'gv', 0.1, 12): 'a3016138781a089b5335c0dd0c8a09f8050b2024b0c934a4dc044e40dff5f8f7',
    (('complete', 13), 'g3', 0.2, None): '725cc763495bf6df8784b12c48f36e5aa2ed2c22858a3703260d5c6ce8750352',
    (('complete', 13), 'gv', 0.2, 0): '14523cfe627c1f4d95258da1313a0fe16458dd6276ddb1fdd5eb4ce0cb765038',
    (('complete', 13), 'gv', 0.2, 6): 'f02eee5dbbc11e674cbeb8ad115eca10030b7395495fb8505dc5c3c95a6036f7',
    (('complete', 13), 'gv', 0.2, 12): 'a3016138781a089b5335c0dd0c8a09f8050b2024b0c934a4dc044e40dff5f8f7',
    (('complete', 13), 'gvw', None, (0, 1)): '7a0c280231ff6c531cd298f5afe69929677a7f057d9bafd0b71c50c304d9aaea',
    (('complete', 13), 'gvw', None, (6, 12)): '40e7f217956be57a381899d365eee98a77f638b5b8196c32b98b2e9d1e2f189b',
    (('pikhurko', 16), 'g3', 0.1, None): '41729115c730d1f96cc3ddd0ac47eaa1649393d603adf9d40a2458dd225d7852',
    (('pikhurko', 16), 'gv', 0.1, 0): '116b9771721586786aa51920c839030124d89baafb2ee47792c46426d0a472b9',
    (('pikhurko', 16), 'gv', 0.1, 8): '15319c04441e52f6ec89f2edaafe69e52b5f6354bb70b6dc1cdfdd2f2ad48a42',
    (('pikhurko', 16), 'gv', 0.1, 15): '767ee77a2aa49dd141b1bddb9ace9e3cf891a28d7b0d8f2b80b4f352182ca7fb',
    (('pikhurko', 16), 'g3', 0.2, None): '57d4d7c33060beb24f764cd3e753398aa0a53cc55ce6ed53f347b310e7d2d43a',
    (('pikhurko', 16), 'gv', 0.2, 0): 'f01373e8d804f8051323383a9819b29dc2159bc31874cc55d7db77aced6b44aa',
    (('pikhurko', 16), 'gv', 0.2, 8): 'eae5cd47e824b7e6b814353573799498db4d2ae0cece68e774699d74608e859a',
    (('pikhurko', 16), 'gv', 0.2, 15): '22d7bb935e4210f658335da36732e9b417ab5c6185f5407344fbbab3dcab52aa',
    (('pikhurko', 16), 'gvw', None, (0, 1)): '75d2916adf77ab3416aa4ed412beb2f8e2d5ada16739897c605c071644763064',
    (('pikhurko', 16), 'gvw', None, (8, 15)): '218cae8b0c1e5e1f3f5afe960c653263e0eba4ed3befd82f129de29c0b8304ec',
    (('pikhurko', 20), 'g3', 0.1, None): 'dcbfc412ee86ae26d440185312413f85c255ab0e530ba685630c3b0f654051d1',
    (('pikhurko', 20), 'gv', 0.1, 0): 'f26dc0561720a86bbb42efee3833ada7939f5092a5ff96207d03003798e5a320',
    (('pikhurko', 20), 'gv', 0.1, 10): 'f62efa685fe364ac60506f12e95c44ecac424851e3c20ee66311e7d81d3b9c89',
    (('pikhurko', 20), 'gv', 0.1, 19): 'd000725887542f2e32cd3e9a803ba020a7ab509be8ec4073c3d41e2498cefdc8',
    (('pikhurko', 20), 'g3', 0.2, None): 'd3230f25afc2d7989aa74ef32fd6ce31eac6832ce6a2620c93c84cd7ba33463f',
    (('pikhurko', 20), 'gv', 0.2, 0): 'd9f58e893348bc060426e9ba7e9f245812eab4fca404457ce54c6cab897dcdb1',
    (('pikhurko', 20), 'gv', 0.2, 10): '88f0ccbdbae49df4a28e1d0d64346bcd968dfda606ef202f4f8ab80095d2d566',
    (('pikhurko', 20), 'gv', 0.2, 19): '902552ae49451514d38713335108bacc0de0b9d559df46d12af7f548781990b0',
    (('pikhurko', 20), 'gvw', None, (0, 1)): '1b4d5597daf95725d9470267c7202069675a02d4e112a32420c5986624d04705',
    (('pikhurko', 20), 'gvw', None, (10, 19)): 'a883bba7118cc1667278332c444cc73d673755938a84cd599c7a1332caf16a2f',
    (('dense_random', 60, 0.85, 0), 'g3', 0.005, None): '36bc80587347cad254d9bd74a3a9a73291de872e3cd22ef40bc67b0dd7f5aca5',
    (('dense_random', 60, 0.85, 0), 'gv', 0.005, 0): '8a66474230f74b5f97d7122c8ef17a9ae767dbeffd4dfd4a0e32935d9a294662',
    (('dense_random', 60, 0.85, 0), 'gv', 0.005, 30): '11d157defe83961e0a83d8c70ac0d01880311cd14f4e9542e7914c69f422d6b2',
    (('dense_random', 60, 0.85, 0), 'gv', 0.005, 59): '878861793fe991551f0920e0d77130dd70743286aa45821133118d219445de0d',
    (('dense_random', 60, 0.85, 0), 'g3', 0.2, None): '36bc80587347cad254d9bd74a3a9a73291de872e3cd22ef40bc67b0dd7f5aca5',
    (('dense_random', 60, 0.85, 0), 'gv', 0.2, 0): '8a66474230f74b5f97d7122c8ef17a9ae767dbeffd4dfd4a0e32935d9a294662',
    (('dense_random', 60, 0.85, 0), 'gv', 0.2, 30): '11d157defe83961e0a83d8c70ac0d01880311cd14f4e9542e7914c69f422d6b2',
    (('dense_random', 60, 0.85, 0), 'gv', 0.2, 59): '878861793fe991551f0920e0d77130dd70743286aa45821133118d219445de0d',
    (('dense_random', 60, 0.85, 0), 'gvw', None, (0, 1)): 'e3cf71456ec6ef9cd44972534c4ec55ab0f837eb63262af865a1f9c0e4e1a7b5',
    (('dense_random', 60, 0.85, 0), 'gvw', None, (30, 59)): '5a68f0decea3b036a0affa9514588a0580f335fef71eaa4fdb66e677a85e0e8a',
    (('dense_random', 60, 0.85, 1), 'g3', 0.005, None): '36bc80587347cad254d9bd74a3a9a73291de872e3cd22ef40bc67b0dd7f5aca5',
    (('dense_random', 60, 0.85, 1), 'gv', 0.005, 0): '8a66474230f74b5f97d7122c8ef17a9ae767dbeffd4dfd4a0e32935d9a294662',
    (('dense_random', 60, 0.85, 1), 'gv', 0.005, 30): '11d157defe83961e0a83d8c70ac0d01880311cd14f4e9542e7914c69f422d6b2',
    (('dense_random', 60, 0.85, 1), 'gv', 0.005, 59): '878861793fe991551f0920e0d77130dd70743286aa45821133118d219445de0d',
    (('dense_random', 60, 0.85, 1), 'g3', 0.2, None): '36bc80587347cad254d9bd74a3a9a73291de872e3cd22ef40bc67b0dd7f5aca5',
    (('dense_random', 60, 0.85, 1), 'gv', 0.2, 0): '8a66474230f74b5f97d7122c8ef17a9ae767dbeffd4dfd4a0e32935d9a294662',
    (('dense_random', 60, 0.85, 1), 'gv', 0.2, 30): '11d157defe83961e0a83d8c70ac0d01880311cd14f4e9542e7914c69f422d6b2',
    (('dense_random', 60, 0.85, 1), 'gv', 0.2, 59): '878861793fe991551f0920e0d77130dd70743286aa45821133118d219445de0d',
    (('dense_random', 60, 0.85, 1), 'gvw', None, (0, 1)): '7dfbb44a2e99800aa15d03aa896d7cdf479239ee442803a3e18de355d6d5b6bf',
    (('dense_random', 60, 0.85, 1), 'gvw', None, (30, 59)): '6311fdbecfb4aa6a01b6b2815a870691ed31388c604d80cf3d137e3788e6e733',
}

# (graph, gamma, effort, seed) -> sha256 of the repr of
# expansion_report(graph, gamma, effort, seed).  A graph is ("gnp", nv, p,
# seed) or an auxiliary-graph cell as in AUX.  Graphs with at most 20
# vertices take the exhaustive path, larger ones the seeded descent; gamma
# 0.3 leaves no admissible side.  The last four cells are build-structure's
# expansion calls: Gv of dense_random(60, 0.85, s) at beta 0.005, gamma 0.003.
EXPANSION = {
    (('gnp', 2, 0.5, 0), 0.003, 200, 0): 'e2aa4eb740ab9cc43cb7877ac42cdf6ee8758d9e6e4ea2edc4fc708783a34d6e',
    (('gnp', 2, 0.5, 0), 0.05, 200, 0): '65a7c9516658a4d3b0d2a162bc866e75f3e75d6416c0881c7e97c0f5770cb764',
    (('gnp', 2, 0.5, 0), 0.3, 200, 0): '3fb9310d69c76d0bb48ed4313b75e71763fc164a931c7fe2cae6c538ad6a1791',
    (('gnp', 3, 1.0, 1), 0.003, 200, 0): '6d20ca690d0b1316d7b6f2127acb7f49b8ee37a3fc65b8d325398542560defa4',
    (('gnp', 3, 1.0, 1), 0.05, 200, 0): 'e3bcb6482cbaf1eb38728856663764baee124276502854a43768fdd3d98edbbe',
    (('gnp', 3, 1.0, 1), 0.3, 200, 0): '89e5a93fd9a2de2ee5d9738a3ed118d23fbe7b9bd1602e3cc24688434f73cfbd',
    (('gnp', 5, 0.5, 1), 0.003, 200, 0): '5489517cce38a58d31169d9b3cc76372c20581d43b4c4e59200d16eb78b24627',
    (('gnp', 5, 0.5, 1), 0.05, 200, 0): '604fdbb777fb2fe6aa50028fe4e4aaba13c76765699ec7904221aaa02ae056a6',
    (('gnp', 5, 0.5, 1), 0.3, 200, 0): '54cfb6ddf9ec761b80baa873ccafb41a210cf31f9e098b014205e7611e800eda',
    (('gnp', 9, 0.3, 2), 0.003, 200, 0): 'a7ad2d4a401c59d2eb8474c8034a9974a328ff8c8fe33370c106a3ea1bf5b96e',
    (('gnp', 9, 0.3, 2), 0.05, 200, 0): 'ce70291973ece944c6103f645d58adfbe2dfc50e21e5066f0bbe4b7f49352ec7',
    (('gnp', 9, 0.3, 2), 0.3, 200, 0): '0de38f7a0d5305e0d0d21a989a8e4021790310df3bdb3c18a0b5b7e25b39340d',
    (('gnp', 12, 0.5, 3), 0.003, 200, 0): 'ae13b7c0e8bd066c76f3586e018c48aa0089ced6ffe0e8fce1a97f4308a8a6b2',
    (('gnp', 12, 0.5, 3), 0.05, 200, 0): 'ec1c08a3bda735c923f90f62fee919a3ab0182f9c6231ea9c30d020b2599f0ab',
    (('gnp', 12, 0.5, 3), 0.3, 200, 0): 'f5390e7b4ea36fadf0821dd1dc661191a868c120f48e9f685279911ed1625fe2',
    (('gnp', 14, 0.2, 4), 0.003, 200, 0): '1b6ee9b62c595529d8098fa197d9c3e8d0428edc05bfc7aa4775e7e8b1439ce5',
    (('gnp', 14, 0.2, 4), 0.05, 200, 0): '92887454556d9fc3bfe20e154e804250a9729b34cd16c2a39e91be85a88b177c',
    (('gnp', 14, 0.2, 4), 0.3, 200, 0): '35b68abd8a67fae58f4248987dedac9efe0ad716e822028ff8ff958d2e9a87a8',
    (('gnp', 16, 0.6, 5), 0.003, 200, 0): '00e67115e1cba64e3c848605e44540926a8bd2a2bf70201facb239582704131f',
    (('gnp', 16, 0.6, 5), 0.05, 200, 0): '51b596ff2de658b025a3e0684d9a35af1ee0b9daf07e0a6b0496a0a0260a9d8e',
    (('gnp', 16, 0.6, 5), 0.3, 200, 0): 'f417dadf9ec4ce323e96332b885a5199a122dbaa10b1e4dcd59ad7413280b2ed',
    (('gnp', 18, 0.1, 6), 0.003, 200, 0): 'd022c6fdab452822f1fa590de0a74e5c81ecbb8396506ef7507c62a2c2e6e763',
    (('gnp', 20, 0.4, 7), 0.05, 200, 0): 'ad6b76b7eec692e307ffd9befb868cd49875cab2d030a94451b0d220a331f42c',
    ((('random', 12, 0.8, 3), 'gv', 0.1, 0), 0.05, 200, 0): 'f6133dd1c46826ea6d8ca4395273b861d70a3b63d278cee266792b1cc2a4b616',
    ((('random', 12, 0.8, 3), 'gv', 0.1, 6), 0.05, 200, 0): 'deb4b2a9f58e42b7a86adc1237bca23848d55df04462d203125adafdc0e66b34',
    ((('pikhurko', 16), 'gv', 0.1, 15), 0.05, 200, 0): '82582c3e0c443ce979d157481261b2158e949ca5777b3341b5a76f4fff590f4e',
    ((('random', 16, 0.75, 4), 'g3', 0.1, None), 0.05, 200, 0): '94364fff9e57f535aeecf4a2a2fd2bcb0654407030498dcd478bf60bc66b5fcb',
    ((('pikhurko', 16), 'gvw', None, (0, 5)), 0.05, 200, 0): '69f08573f89d4041a13cc11d6e6f5e815d7a3906fc14a4d7246e1bc66b7d25ac',
    (('gnp', 21, 0.5, 0), 0.003, 200, 0): '48ee3152f5fe540ad7a776e530d26e06b0265af1fd81757772404d1d0df92e3e',
    (('gnp', 21, 0.5, 0), 0.05, 60, 1): '9bb58e6a7175650df833d47bf3dd3827cf63627d822b68545f56d9a29a0a3f4c',
    (('gnp', 21, 0.5, 0), 0.3, 200, 0): '7e28c115f8805df9642a57ecd9d3a9809df1152fe658de40028f70444dee3bed',
    (('gnp', 23, 0.2, 1), 0.003, 200, 0): '5aadf32d607e498391bbdddba758c39350d391e9de0c9e89b471aaf369c47578',
    (('gnp', 23, 0.2, 1), 0.05, 60, 1): '23377312faf4fe5583c95d237f2f6193553bc077822e9944b4611303ed295f99',
    (('gnp', 23, 0.2, 1), 0.3, 200, 0): '08035dd04f0ff8ca7cf8eb9faa54b3950df6714257ff4b33be94e1b6e1632287',
    (('gnp', 30, 0.05, 2), 0.003, 200, 0): 'e5431d4e560f8cc86cdefff0062f42bc2543a5aad3ca7bac0cad8b64af5ff5e4',
    (('gnp', 30, 0.05, 2), 0.05, 60, 1): 'dffcfd8872663d15146d87351144f1a658dd27aa41ed91ee02d27c9d97131ff6',
    (('gnp', 30, 0.05, 2), 0.3, 200, 0): '855bf1b14590857618be02370baa9edb3fd4cc4b947b54f540c336b7864bf09e',
    (('gnp', 40, 0.1, 3), 0.003, 200, 0): '624ef84422c992c29c0faa80c9f1ac79ecd36834e3ec0a215af17ba02dead641',
    (('gnp', 40, 0.1, 3), 0.05, 60, 1): '334fd99db1c85ec79f3d5f79ce206167bcf87707290b28ada82d8febf6bf1d8b',
    (('gnp', 40, 0.1, 3), 0.3, 200, 0): '661bc5f36aeff1c16a148388d4de691ffe20eb2dfa7e4d2d96da227267e90136',
    (('gnp', 45, 0.7, 5), 0.003, 200, 0): 'ebf7011bdd5e9c31214be4cbfe136d0fb6809fd2f969d9e133eb3e3be9d8489c',
    (('gnp', 45, 0.7, 5), 0.05, 60, 1): 'e40ca1ce7b4298a3dfbcd54bbdbf7da7bc5b3e437063c30870c83d5775acdc67',
    (('gnp', 45, 0.7, 5), 0.3, 200, 0): '2397d680b762f6213165433b0d5a9c6afd88c5f37aadd93a26705956133e0eaf',
    (('gnp', 59, 0.03, 4), 0.003, 200, 0): '267138d9bdb6b15cce0ad305d62855ccc0aed67f0546a3ec85e54fc19a44ee66',
    (('gnp', 59, 0.03, 4), 0.05, 60, 1): 'a3738076f36f0673ebda8b91e5d5c4253620ba963b05fa560ed31b54e011f65b',
    (('gnp', 59, 0.03, 4), 0.3, 200, 0): '70f2371cb9778ce75ce5f75ed257d0d2686b1bef3f8dd4b8ee78d0ffcb8aa59c',
    (('gnp', 30, 0.3, 8), 0.02, 0, 4): '5ce7ea9dd5320fd1d533f501ad0312dae15d0d21da8e15721b1953688c6c5f8d',
    ((('random', 30, 0.8, 7), 'g3', 0.1, None), 0.05, 40, 2): '205ddd17a568016539475287d5e165e36e811bd495f8b8f26fb016887714b21d',
    ((('pikhurko', 24), 'gv', 0.1, 23), 0.05, 40, 2): 'cd6ea0139cc6d074489a981f829869e56e87433ceab213839d44b29a764947fd',
    ((('dense_random', 60, 0.85, 0), 'gv', 0.005, 0), 0.003, 200, 0): '43b21ffb0cf7f0ea21792b2482ffdb4add8b87fcc501f3c87cf2530fff261bee',
    ((('dense_random', 60, 0.85, 0), 'gv', 0.005, 1), 0.003, 200, 7): 'e77a41a6b3c1257b48406fae9b8be28c80016ebc9d2583e82a1fd38033fbfec0',
    ((('dense_random', 60, 0.85, 1), 'gv', 0.005, 2), 0.003, 200, 123456789): '31336c9a84e77e57d0ffc6f8d8690fcdcc8606a1c223849c6fec4c8f14b821db',
    ((('dense_random', 60, 0.85, 1), 'gv', 0.005, 3), 0.003, 200, 42): '8f70e28814349f04fe9ade703a8ce6f726dd03a98b95798c9ff2ac53ea283fb9',
}

# (graph, source, length) -> sha256 of the walk counts of walk_count_table
WALKS = {
    (('gnp', 6, 0.5, 1), 0, 0): 'e3659757e5e94ae0e2916067530d7cf07bf65303aca01828386586c882ccc4f8',
    (('gnp', 6, 0.5, 1), 0, 1): '32c0ac1ab31da914ea62229c9778e1936d9133357ff7039125bcce5aa4fe6694',
    (('gnp', 6, 0.5, 1), 0, 3): 'c24aa294f70db30b7076b3ebba453425c7eaaae8313a601130da4b158282cdfd',
    (('gnp', 6, 0.5, 1), 0, 6): 'e7bc111b3224946b4d9f5b6cf382849fe24c5e7d55c2960ba54fe3e981e9c08c',
    (('gnp', 12, 0.4, 2), 5, 0): 'd911d156adb489fdeb0c6add5a8e66d11c1b1b912af8f711569031b474857703',
    (('gnp', 12, 0.4, 2), 5, 1): '03fd1610cfa5cd614d003d123e34e4d067bce086889b6450a49f49c34645de2f',
    (('gnp', 12, 0.4, 2), 5, 3): '3404a13980c72ab56b9333a2901309172e8d1ac6547d9cfc0458fe7f279cba9f',
    (('gnp', 12, 0.4, 2), 5, 6): '21e47de0dd43f908aeb3142e83ef0f2b0363c540247af5d736080048e785275c',
    ((('complete', 10), 'g3', 0.3, None), 3, 0): '23ad618fc9086638e0900a45bf5b04860ca3694ea265a738cad62761659131e9',
    ((('complete', 10), 'g3', 0.3, None), 3, 1): 'b1c10551f486c192c4f4aa1c1255186ff79a2a33f319eeb6942ed131d60e4c5b',
    ((('complete', 10), 'g3', 0.3, None), 3, 3): '4c0ed5143da434c1fe59e56850fb2ea5ddc089f97f1d2b839934c8af0744c277',
    ((('complete', 10), 'g3', 0.3, None), 3, 6): '1db0b9b87f0c1c77549ebfcad343dabb24cabc026ae33eb374b610dc886c38ae',
    ((('random', 12, 0.8, 3), 'gv', 0.1, 0), 4, 0): '4748ea904637bf5101670557463eafdd4b0848d96b8a320e563a622c079f3af3',
    ((('random', 12, 0.8, 3), 'gv', 0.1, 0), 4, 1): '16c65f05e7bd09abfc6d7fd4c95bd23e306c35d8708b243e3dc28769f517fc91',
    ((('random', 12, 0.8, 3), 'gv', 0.1, 0), 4, 3): '9a20e74bd739a9cdb80ff0c614eaff6d9e0d888aa26c5e8a380b5f5fe98701a3',
    ((('random', 12, 0.8, 3), 'gv', 0.1, 0), 4, 6): '417d933378ae3feeebc79bd80aa375166762d4449dad1dd13588a0994f3d669b',
    ((('pikhurko', 16), 'gvw', None, (0, 5)), 6, 0): 'c453960d5de85b41199a2571c22ef5ba8934d8ca920bff8925ec439f3144cd2f',
    ((('pikhurko', 16), 'gvw', None, (0, 5)), 6, 1): 'ce299ba919c23b2216689a037071ba4a12f7d33ba2c01822e1e4db7542ee1275',
    ((('pikhurko', 16), 'gvw', None, (0, 5)), 6, 3): '0a4d34ddbdb334a82ddf54b51ab60ffc5aaee16052a346bc516590b4b430f907',
    ((('pikhurko', 16), 'gvw', None, (0, 5)), 6, 6): 'c63a2413bd1f7b3e8a8c844c9fb8d36dafcfc06e44eaa22eff71a1e0d146638a',
}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _dense_random(n, delta, seed):
    return dense_random(n, delta, seed)


def _instance(spec):
    kind, *args = spec
    if kind == "complete":
        return complete(*args)
    if kind == "pikhurko":
        return pikhurko(*args)[0]
    if kind == "dense_instance":
        return dense_instance(*args)
    if kind == "random":
        return random_hypergraph(*args)
    return _dense_random(*args)


def _aux_graph(spec, kind, beta, apex):
    h = _instance(spec)
    if kind == "g3":
        return build_g3(h, beta)
    if kind == "gv":
        return build_gv(h, apex, beta)
    return build_gvw(h, *apex)


def _graph(spec):
    """("gnp", nv, p, seed): each pair of range(nv) an edge with
    probability p; otherwise ``(instance, kind, beta, apex)`` of an
    auxiliary graph."""
    if spec[0] != "gnp":
        return _aux_graph(*spec)
    _kind, nv, p, seed = spec
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(nv), 2) if rng.random() < p]
    return AuxGraph.from_edges(nv, range(nv), edges)


def aux_record(spec, kind, beta, apex):
    g = _aux_graph(spec, kind, beta, apex)
    return text_digest(repr((g.vmask, list(g.edges()))))


def expansion_record(graph, gamma, effort, seed):
    return text_digest(repr(expansion_report(_graph(graph), gamma, effort, seed)))


def walks_record(graph, source, length):
    return text_digest(repr(walk_count_table(_graph(graph), source, length)))


def tiling_record(spec, fraction, seed):
    h = _instance(spec)
    oracle = classify_pairs(h, math.ceil(fraction * h.n))
    return text_digest(repr(weighted_tiling(h, range(h.n), oracle, seed=seed).tiles))


def almost_k4_record(spec, seed):
    res = almost_k4_factor(_instance(spec), Config(seed=seed))
    return text_digest(
        repr(
            (
                res.k4_tiles,
                sorted(res.leftover),
                res.leftover_bound,
                res.within_bound,
                res.tiling.tiles,
                sorted(res.pruned),
            )
        )
    )


def cover_record(spec, q, mu, seed, step):
    h = _instance(spec)
    res = cover_with_squared_paths(h, q, mu, seed=seed, domain=range(0, h.n, step))
    paths = [p.vertices for p in res.paths]
    return text_digest(
        repr((paths, sorted(res.uncovered), res.mu_bound, res.within_bound))
    )


def oracle_cycle_record(spec):
    res = oracle_has_squared_hamiltonian(_instance(spec), time_limit=None)
    witness = res.witness.vertices if res.witness is not None else None
    return text_digest(repr((res.status, witness)))


def oracle_tiling_record(spec):
    res = oracle_has_perfect_k4_tiling(_instance(spec), time_limit=None)
    return text_digest(repr((res.status, res.witness)))


# The stats the construct digests cover, named so that added counters leave
# the digests alone; a failed attempt reports only the stages it reached.
STAT_KEYS = (
    "attempt_seed",
    "reservoir_size",
    "family_size",
    "family_degraded",
    "absorbing_path_size",
    "cover_paths",
    "reservoir_used",
    "leftover_size",
)


def construct_record(h, cfg):
    rep = construct_squared_hamiltonian(h, cfg)
    stats = [(k, rep.stats[k]) for k in STAT_KEYS if k in rep.stats]
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
    n, delta, inst_seed, theta_star, cfg_seed = cell
    h = _dense_random(n, delta, inst_seed)
    cfg = Config(theta_star=theta_star, seed=cfg_seed)
    assert construct_record(h, cfg) == CONSTRUCT[cell]


@pytest.mark.parametrize("cell", sorted(CONSTRUCT_PIKHURKO))
def test_construct_pikhurko(cell):
    n, seed = cell
    assert construct_record(pikhurko(n)[0], Config(seed=seed)) == CONSTRUCT_PIKHURKO[cell]


@pytest.mark.parametrize("cell", list(WEIGHTED_TILING))
def test_weighted_tiling(cell):
    assert tiling_record(*cell) == WEIGHTED_TILING[cell]


@pytest.mark.parametrize("cell", list(ALMOST_K4))
def test_almost_k4_factor(cell):
    assert almost_k4_record(*cell) == ALMOST_K4[cell]


@pytest.mark.parametrize("cell", list(COVER))
def test_cover_with_squared_paths(cell):
    assert cover_record(*cell) == COVER[cell]


@pytest.mark.parametrize("cell", list(ORACLE_CYCLE))
def test_oracle_cycle(cell):
    assert oracle_cycle_record(cell) == ORACLE_CYCLE[cell]


@pytest.mark.parametrize("cell", list(ORACLE_TILING))
def test_oracle_tiling(cell):
    assert oracle_tiling_record(cell) == ORACLE_TILING[cell]


@pytest.mark.parametrize("cell", sorted(ABSORB_DEMO))
def test_absorb_demo_output(cell, capsys):
    n, seed = cell
    argv = ["absorb", "--demo", "--n", str(n), "--seed", str(seed)]
    assert main(argv) == EXIT_OK
    head, body = capsys.readouterr().out.split("\n", 1)
    assert text_digest(body) == ABSORB_DEMO[cell]
    assert head.startswith("# manifest: ")
    manifest = json.loads(head[len("# manifest: ") :])
    assert manifest["argv"] == argv
    assert manifest["config"] == Config(seed=seed).as_dict()


@pytest.mark.parametrize("cell", list(CLI))
def test_cli_output(cell, capsys, monkeypatch):
    argv, spec = cell
    stdin_text = format_hypergraph(_instance(spec)) if spec is not None else ""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(list(argv))
    assert text_digest(repr((code, capsys.readouterr().out))) == CLI[cell]


@pytest.mark.parametrize("cell", list(AUX))
def test_aux_graph(cell):
    assert aux_record(*cell) == AUX[cell]


@pytest.mark.parametrize("cell", list(EXPANSION))
def test_expansion_report(cell):
    assert expansion_record(*cell) == EXPANSION[cell]


@pytest.mark.parametrize("cell", list(WALKS))
def test_walk_counts(cell):
    assert walks_record(*cell) == WALKS[cell]
