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
"""

import functools
import hashlib
import io
import json
import math

import pytest

from hypersquare import (
    Config,
    almost_k4_factor,
    classify_pairs,
    complete,
    construct_squared_hamiltonian,
    cover_with_squared_paths,
    dense_instance,
    dense_random,
    format_hypergraph,
    oracle_has_perfect_k4_tiling,
    oracle_has_squared_hamiltonian,
    pikhurko,
    random_hypergraph,
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
# the family.
CONSTRUCT = {
    (60, 0.9, 1, 0.3, 0): ('cycle', None, 1, 8, '955db32d6a75bf1d794e20462c98fd89dc5e38ed24bc50d691d9f042afa7ccd3'),
    (60, 0.9, 1, 0.3, 1): ('cycle', None, 1, 8, 'f094d2598c56cff9e319fd1d10dd7f7f7ed48c4d418c27ab5390a3d40109fdf2'),
    (100, 0.9, 2, 0.3, 0): ('cycle', None, 1, 13, '59a67ebe1fffbd6b05095abbd1562822541160bc8e467ea1f0ad4be8ab92aee8'),
    (100, 0.9, 2, 0.3, 3): ('cycle', None, 1, 14, 'da1bd402ec1d16725d2416448b9623b80889e1fc0b2b52337f6c8465debb9478'),
    (150, 0.9, 1, 0.3, 0): ('cycle', None, 1, 21, 'a42e7a8ab4562b95eabf373038a0731527205a0e593cc8587d51df8926ed0004'),
    (150, 0.9, 1, 0.3, 5): ('cycle', None, 1, 21, '3d586f55d89d3a922e0c524f441f196e20e075d618b416d2d649503c8d21183e'),
    (30, 0.8, 0, 0.15, 0): ('failure', 'absorb', 3, 3, '42614d2ff8d8aec700224e3f0b02e540cd192704b9ee72fb008fb99c29e6ba19'),
    (30, 0.85, 0, 0.15, 0): ('cycle', None, 3, 4, '3410bada39242c59a452aaac7d4e12f804d96d40dea8b0491c6664bafe6ada90'),
    (40, 0.8, 5, 0.3, 5): ('cycle', None, 3, 5, 'c56f059b5f5edfa93908326c6d11c3bf9c7d27347aee9ed324891d552d3c7d3a'),
    (50, 0.8, 0, 0.3, 0): ('failure', 'connect', 3, 5, 'c4532b3f9ee9db71792cd8e33702f64d6b1113953b6ea98ee3e22c8f26db6415'),
    (50, 0.8, 1, 0.15, 1): ('cycle', None, 3, 7, '98409882e5fb686b1b6a505234ba6f6884d1b53d99abd70ab13b7072d01fda0d'),
    (50, 0.8, 2, 0.3, 2): ('failure', 'absorb', 3, 6, '9d5c18a0f60a731efafc974e52ac435578c33540dd129976e3eeb1e5b159e0d4'),
    (50, 0.85, 2, 0.15, 2): ('cycle', None, 3, 7, '94f30edbb9dea1f177f861b0c9c85addff43f52eb0b5fc445611502335c99cc1'),
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
# and cover cells set some of the config flags their code reads.
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
    return _dense_random(*args)


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


def construct_record(n, delta, inst_seed, theta_star, cfg_seed):
    h = _dense_random(n, delta, inst_seed)
    rep = construct_squared_hamiltonian(h, Config(theta_star=theta_star, seed=cfg_seed))
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
    assert construct_record(*cell) == CONSTRUCT[cell]


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
