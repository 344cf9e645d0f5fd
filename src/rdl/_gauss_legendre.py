"""Gauss-Legendre rules on [-1, 1] as float.hex text: the positive half of
each rule the package uses, one "node weight" line per node, nodes ascending.
Below them, the abscissae and weights of QUADPACK's 21-point Kronrod rule.

The rules are symmetric bit for bit, so the half gives the whole rule.  The
text was generated once from scipy.special.roots_legendre(n), as
`x, w = roots_legendre(n)` and one line `f"{x[i].hex()} {w[i].hex()}"` for each
i >= n // 2; the tests check it against scipy.
"""

HALVES = {
    12: """
0x1.007a5f8f630e6p-3 0x1.fe40ce6d4f01fp-3
0x1.78a8d20a8b19cp-2 0x1.de3155c256ab1p-3
0x1.2cb4f05c077f9p-1 0x1.a0163e6b1ab6bp-3
0x1.8a30aeed88f36p-1 0x1.47d7258f22d8ap-3
0x1.cee874ffb88b4p-1 0x1.b60602bce6155p-4
0x1.f68f1d8e42e81p-1 0x1.8275d9dea6e53p-5
""",
    16: """
0x1.852bd6676a9fap-4 0x1.83feae80e4deep-3
0x1.205cae642337cp-2 0x1.75f8c77e0c004p-3
0x1.d50259a43a773p-2 0x1.5a6ebbb5a75edp-3
0x1.3c5a466d5e8b8p-1 0x1.325f61bca3cb2p-3
0x1.82c45dda4726bp-1 0x1.fe7af2bad3858p-4
0x1.bb3403514e483p-1 0x1.85c4ee79cc236p-4
0x1.e39f56616f9b0p-1 0x1.fdfb1a2c12637p-5
0x1.fa92c264d787ep-1 0x1.bcddab4b7c4bcp-6
""",
    256: """
0x1.9156336000918p-8 0x1.9154ea92d7225p-7
0x1.2cfccc244df17p-6 0x1.91458110ada5ap-7
0x1.f5987c6b65839p-6 0x1.9126aea3df218p-7
0x1.5f1074beb2af3p-5 0x1.90f8747b6eabbp-7
0x1.c3472ff3e577ap-5 0x1.90bad45dd25c1p-7
0x1.13b64b5049f8ep-4 0x1.906dd0a8e1da9p-7
0x1.45be681d335acp-4 0x1.90116c51bf0dap-7
0x1.77ba02839a930p-4 0x1.8fa5aae4b919fp-7
0x1.a9a72f2166405p-4 0x1.8f2a908529723p-7
0x1.db84032256bfep-4 0x1.8ea021ed4b2e1p-7
0x1.06a74a296fc3cp-3 0x1.8e06646e0c944p-7
0x1.1f827c997d2bap-3 0x1.8d5d5deedacc5p-7
0x1.3852a48479c20p-3 0x1.8ca514ed67e2ep-7
0x1.5116cdfa1753ep-3 0x1.8bdd907d6ae55p-7
0x1.69ce057ff17b2p-3 0x1.8b06d8485a66dp-7
0x1.8277581ae7444p-3 0x1.8a20f48d211abp-7
0x1.9b11d3586ff00p-3 0x1.892bee1fccc23p-7
0x1.b39c8557ea74ep-3 0x1.8827ce6937790p-7
0x1.cc167cd3e767ep-3 0x1.87149f66ab1a2p-7
0x1.e47ec92b6cf06p-3 0x1.85f26ba97f176p-7
0x1.fcd47a6b34678p-3 0x1.84c13e56b096dp-7
0x1.0a8b50ab70a80p-2 0x1.8381232674d57p-7
0x1.16a227b918a2cp-2 0x1.82322663c5fe8p-7
0x1.22ae4b851245ap-2 0x1.80d454ebea504p-7
0x1.2eaf459f0f70cp-2 0x1.7f67bc2df5a0cp-7
0x1.3aa4a00480230p-2 0x1.7dec6a2a45411p-7
0x1.468de5251aa2ep-2 0x1.7c626d71f6658p-7
0x1.526a9fe75f446p-2 0x1.7ac9d52656fafp-7
0x1.5e3a5bad179fcp-2 0x1.7922b0f850b80p-7
0x1.69fca457d10a4p-2 0x1.776d1127cf290p-7
0x1.75b1064d52296p-2 0x1.75a906831f992p-7
0x1.81570e7c0b6fcp-2 0x1.73d6a2664c21cp-7
0x1.8cee4a5f825c6p-2 0x1.71f5f6ba70d2fp-7
0x1.98764804b74e2p-2 0x1.700715f50bb8dp-7
0x1.a3ee960e85c04p-2 0x1.6e0a1317474aep-7
0x1.af56c3b9fec76p-2 0x1.6bff01ad3fb55p-7
0x1.baae60e2bda0ep-2 0x1.69e5f5cd42a08p-7
0x1.c5f4fe07362cep-2 0x1.67bf04170999ep-7
0x1.d12a2c4cfd25ap-2 0x1.658a41b2ef8dfp-7
0x1.dc4d7d8509ee6p-2 0x1.6347c451207d1p-7
0x1.e75e842ff1ca8p-2 0x1.60f7a228c4a5ep-7
0x1.f25cd3821c588p-2 0x1.5e99f1f725aa2p-7
0x1.fd47ff67f1238p-2 0x1.5c2ecafecf68fp-7
0x1.040fce44ff128p-1 0x1.59b64506ab0d1p-7
0x1.0971a0288b864p-1 0x1.57307859156d2p-7
0x1.0ec940753691ep-1 0x1.549d7dc2f046ap-7
0x1.14167aa5cfd5ap-1 0x1.51fd6e92ae4ffp-7
0x1.19591a9b6240dp-1 0x1.4f5064975a7d2p-7
0x1.1e90ec9f3478ep-1 0x1.4c967a1f9a49fp-7
0x1.23bdbd64c5401p-1 0x1.49cfc9f8ab2b8p-7
0x1.28df5a0bc3c7ep-1 0x1.46fc6f6d5ac38p-7
0x1.2df5902203db0p-1 0x1.441c8644fb25ep-7
0x1.33002da56dcdap-1 0x1.41302ac25101fp-7
0x1.37ff0105ea1f2p-1 0x1.3e3779a27e80dp-7
0x1.3cf1d92748bb4p-1 0x1.3b32901be82d6p-7
0x1.41d8856323c78p-1 0x1.38218bdd164abp-7
0x1.46b2d58abdebbp-1 0x1.35048b0b906fcp-7
0x1.4b8099e8dc004p-1 0x1.31dbac42b5cf1p-7
0x1.5041a3439a13cp-1 0x1.2ea70e928faa2p-7
0x1.54f5c2de3bb2cp-1 0x1.2b66d17ea06cbp-7
0x1.599cca7af761cp-1 0x1.281b14fcad9e4p-7
0x1.5e368c5cbd36ep-1 0x1.24c3f97385d9ep-7
0x1.62c2db48f8821p-1 0x1.21619fb9c22a6p-7
0x1.67418a894c732p-1 0x1.1df4291482fd3p-7
0x1.6bb26ded4baaap-1 0x1.1a7bb7362992cp-7
0x1.701559cc2aa79p-1 0x1.16f86c3d0c2efp-7
0x1.746a23066cfe2p-1 0x1.136a6ab227196p-7
0x1.78b09f078d4a0p-1 0x1.0fd1d587c8c14p-7
0x1.7ce8a3c79fc9ep-1 0x1.0c2ed0183a6ccp-7
0x1.811207ccef93cp-1 0x1.08817e2464b8bp-7
0x1.852ca22d9655ap-1 0x1.04ca03d26f912p-7
0x1.89384a910e8d3p-1 0x1.010885ac5fcabp-7
0x1.8d34d931c02d4p-1 0x1.fa7a513d5d911p-8
0x1.912226de879cap-1 0x1.f2d023edc0931p-8
0x1.95000cfc3702ep-1 0x1.eb12cec427398p-8
0x1.98ce658711d1fp-1 0x1.e3429dd720f08p-8
0x1.9c8d0b14427f7p-1 0x1.db5fddf6a477ep-8
0x1.a03bd8d34a5e8p-1 0x1.d36adca91acfap-8
0x1.a3daaa8f6b8c9p-1 0x1.cb63e8286579ep-8
0x1.a7695cb10ce2ap-1 0x1.c34b4f5edda21p-8
0x1.aae7cc3f17de2p-1 0x1.bb2161e44c426p-8
0x1.ae55d6e05072ap-1 0x1.b2e66ffadc65bp-8
0x1.b1b35adca6b92p-1 0x1.aa9aca8c03c5ap-8
0x1.b500371e826dap-1 0x1.a23ec3256afe7p-8
0x1.b83c4b3408314p-1 0x1.99d2abf5c8111p-8
0x1.bb67775058808p-1 0x1.9156d7c9b9073p-8
0x1.be819c4cc854dp-1 0x1.88cb9a08956eap-8
0x1.c18a9baa1364ep-1 0x1.803146b138f5ep-8
0x1.c482579187f53p-1 0x1.77883256cc147p-8
0x1.c768b2d62c31ap-1 0x1.6ed0b21d82890p-8
0x1.ca3d90f5dd00ep-1 0x1.660b1bb757bb0p-8
0x1.cd00d61a66493p-1 0x1.5d37c560c2be0p-8
0x1.cfb2671a949afp-1 0x1.545705dd68b31p-8
0x1.d252297b40364p-1 0x1.4b693474c5aadp-8
0x1.d4e0037051614p-1 0x1.426ea8eed490cp-8
0x1.d75bdbddbe06ap-1 0x1.3967bb90ae978p-8
0x1.d9c59a5880904p-1 0x1.3054c51928c7bp-8
0x1.dc1d272787f68p-1 0x1.27361ebd6a7c7p-8
0x1.de626b44a0f9cp-1 0x1.1e0c222582296p-8
0x1.e095505d587e8p-1 0x1.14d72968f2802p-8
0x1.e2b5c0d3d7026p-1 0x1.0b978f0b3d5d0p-8
0x1.e4c3a7bfb5216p-1 0x1.024dadf86b23ep-8
0x1.e6bef0eec925bp-1 0x1.f1f3c30317954p-9
0x1.e8a788e5ed976p-1 0x1.df390ab270753p-9
0x1.ea7d5ce1c0c6ep-1 0x1.cc6beb2012326p-9
0x1.ec405ad75d4a1p-1 0x1.b98d1d2228bb0p-9
0x1.edf071750b665p-1 0x1.a69d5a3cb8fcap-9
0x1.ef8d9022eb614p-1 0x1.939d5c9a8cb32p-9
0x1.f117a70398b30p-1 0x1.808ddf060fa2ep-9
0x1.f28ea6f4c6157p-1 0x1.6d6f9ce228a09p-9
0x1.f3f2818fd26e3p-1 0x1.5a43522316ecfp-9
0x1.f543292a56919p-1 0x1.4709bb474a90bp-9
0x1.f68090d6abe12p-1 0x1.33c395503b3dcp-9
0x1.f7aaac646bcbep-1 0x1.20719dbb5f048p-9
0x1.f8c17060e840cp-1 0x1.0d14927b1706dp-9
0x1.f9c4d2179d30cp-1 0x1.f35a63dfcb81ep-10
0x1.fab4c7929b5b5p-1 0x1.cc7875c3bca86p-10
0x1.fb91479aecd74p-1 0x1.a584d8f55ce2cp-10
0x1.fc5a49b8f4370p-1 0x1.7e810c81fe716p-10
0x1.fd0fc634c822ep-1 0x1.576e902cada1ep-10
0x1.fdb1b6168f7e7p-1 0x1.304ee47649b1ep-10
0x1.fe401326e7f09p-1 0x1.09238ac3ccf1ap-10
0x1.febad7ef70e20p-1 0x1.c3dc0bb13433bp-11
0x1.ff21ffbbc96eep-1 0x1.755fb6bc1a4cdp-11
0x1.ff75869c18c43p-1 0x1.26d532ee937f9p-11
0x1.ffb5696e0e722p-1 0x1.b07fc30432075p-12
0x1.ffe1a60c7dda8p-1 0x1.1349afff7a2dbp-12
0x1.fffa3d4889aedp-1 0x1.d91249263bf56p-14
""",
}

# The positive abscissae xgk(1..10) of QUADPACK's 21-point Gauss-Kronrod rule
# (dqk21; Piessens et al., QUADPACK, 1983), descending; xgk(11) = 0 is the
# panel centre and the even entries are the 10-point Gauss nodes.  QAGS (the
# routine behind scipy.integrate.quad on a finite interval) and rdl's
# _quadpack (its bisection without the extrapolation) evaluate a panel at its
# centre, then at centre -/+ half-length * xgk(j) for j = 2, 4, ..., 10 and
# then j = 1, 3, ..., 9.  The values are the positive
# points that scipy's quad visits for a constant on [-1, 1]; the tests check
# them against scipy.
KRONROD_21 = """
0x1.fdc6c69272ae5p-1
0x1.f2a3e062af2d8p-1
0x1.dc3d9a4b011c6p-1
0x1.bae995e9cb2f3p-1
0x1.8fc7574fa6c62p-1
0x1.5bdb9228de198p-1
0x1.2021b401fc120p-1
0x1.bbcc009016adcp-2
0x1.2d755295ea137p-2
0x1.30e507891e27ap-3
"""

# The weights of that rule, as float.hex of the decimals in dqk21's data
# statements: wgk(1..11), the Kronrod weights of xgk(1..10) and of the centre,
# and wg(1..5), the 10-point Gauss weights of xgk(2), xgk(4), ..., xgk(10).
KRONROD_21_WGK = """
0x1.7f35bdbca883fp-7
0x1.0ab76a4a94042p-5
0x1.c08f7021999a2p-5
0x1.335ccd53722e5p-4
0x1.7d711dddcb389p-4
0x1.c00cbfda8818fp-4
0x1.f9d2b8f5d2ddep-4
0x1.13e26d16948d4p-3
0x1.2467b616c0e05p-3
0x1.2e91d6ff21eb5p-3
0x1.321082b7cd10fp-3
"""
GAUSS_10_WG = """
0x1.1115f8b62dc1fp-4
0x1.32138c878efe5p-3
0x1.c0b059d00bc31p-3
0x1.13baa7a559bfep-2
0x1.2e9de7014d6efp-2
"""
