package approxhadoop_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	approxhadoop "approxhadoop"
	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/workload"
)

// frozenTarget pins, for the closed-loop controllers over
// MultiStageReducer jobs, the SHA-256 of WriteTSV followed by one line
// of the counters a different plan would move (MapsCompleted,
// MapsDropped, ItemsProcessed, PairsShuffled, Waves). The hashes were
// recorded at commit 24a4464, before the PR 14 rewrite of the planner's
// per-probe arithmetic, the reducer's key table and realizedMet, so a
// plan, directive or output byte that differs from that commit fails
// here. Key: app/controller/seed/barrier|online/faults|clean.
var frozenTarget = map[string]string{
	"pagepop/target0.02/1/online/clean":               "0c0d7b97ee043ced0e305b6f72cf3e7c2ebd80832fe52bf3bbe7e8cd13445ff6",
	"pagepop/target0.02/1/online/faults":              "6567603c7cb968ca13a5d30ac2799fabab7d3f2522383036c276d2981d18dabe",
	"pagepop/target0.02/1/barrier/clean":              "bdde28b98bcb1175b7a4ba51b1d569c8339e17963fc0b81bc49718e697dca54f",
	"pagepop/target0.02/1/barrier/faults":             "7b36affa2019cc0f543017403d28885c73d2f3afc89ac38a39568af282e614c5",
	"pagepop/target0.02/7/online/clean":               "fc9b265de4175e5c254b9cfeb47973710ae4760f0576c5094b49908cead5ef47",
	"pagepop/target0.02/7/online/faults":              "806cb1eaee1a07d44a0e835cd7494f74e6c572c3f892ac5e02112180f9bbc583",
	"pagepop/target0.02/7/barrier/clean":              "4ba3a8807b0c7c974701dc718060b1515924d368a879dbfc082e4dae6f2931d2",
	"pagepop/target0.02/7/barrier/faults":             "c7b723df838cce58a1219f1488fdf4273be8fadb277c01275e68b52ffb838caf",
	"pagepop/target0.05-strict/1/online/clean":        "bdde28b98bcb1175b7a4ba51b1d569c8339e17963fc0b81bc49718e697dca54f",
	"pagepop/target0.05-strict/1/online/faults":       "7b36affa2019cc0f543017403d28885c73d2f3afc89ac38a39568af282e614c5",
	"pagepop/target0.05-strict/1/barrier/clean":       "bdde28b98bcb1175b7a4ba51b1d569c8339e17963fc0b81bc49718e697dca54f",
	"pagepop/target0.05-strict/1/barrier/faults":      "7b36affa2019cc0f543017403d28885c73d2f3afc89ac38a39568af282e614c5",
	"pagepop/target0.05-strict/7/online/clean":        "4ba3a8807b0c7c974701dc718060b1515924d368a879dbfc082e4dae6f2931d2",
	"pagepop/target0.05-strict/7/online/faults":       "c7b723df838cce58a1219f1488fdf4273be8fadb277c01275e68b52ffb838caf",
	"pagepop/target0.05-strict/7/barrier/clean":       "4ba3a8807b0c7c974701dc718060b1515924d368a879dbfc082e4dae6f2931d2",
	"pagepop/target0.05-strict/7/barrier/faults":      "c7b723df838cce58a1219f1488fdf4273be8fadb277c01275e68b52ffb838caf",
	"pagepop/target1-strict/1/online/clean":           "06748ea50c03b756d9965204adb61acd63b5dad850b5907d616409431d3ddcc0",
	"pagepop/target1-strict/1/online/faults":          "b6bb508fe00ed7af25bfe0eb6124b8f960a27dd63588bf145f57fb28b1478e8e",
	"pagepop/target1-strict/1/barrier/clean":          "bdde28b98bcb1175b7a4ba51b1d569c8339e17963fc0b81bc49718e697dca54f",
	"pagepop/target1-strict/1/barrier/faults":         "7b36affa2019cc0f543017403d28885c73d2f3afc89ac38a39568af282e614c5",
	"pagepop/target1-strict/7/online/clean":           "5f6027ed64162c4a176b8dd1af44e2d7499e28a3fd8d3e4b5ffffbe1695147fe",
	"pagepop/target1-strict/7/online/faults":          "593c915504f833c83d50a1f7157f78f08d63f71351a987c7116b7457e3a955e3",
	"pagepop/target1-strict/7/barrier/clean":          "4ba3a8807b0c7c974701dc718060b1515924d368a879dbfc082e4dae6f2931d2",
	"pagepop/target1-strict/7/barrier/faults":         "c7b723df838cce58a1219f1488fdf4273be8fadb277c01275e68b52ffb838caf",
	"pagepop/target0.02-pilot/1/online/clean":         "d1ee0900d3847335bc5c06aef5bff32ffeec3f3778d7403df923c223fe415e35",
	"pagepop/target0.02-pilot/1/online/faults":        "3a74a49bb86bab12ca5b4fcd890408f3307eb0b6adfa158e76a69b04ec78a0ab",
	"pagepop/target0.02-pilot/1/barrier/clean":        "d1ee0900d3847335bc5c06aef5bff32ffeec3f3778d7403df923c223fe415e35",
	"pagepop/target0.02-pilot/1/barrier/faults":       "3a74a49bb86bab12ca5b4fcd890408f3307eb0b6adfa158e76a69b04ec78a0ab",
	"pagepop/target0.02-pilot/7/online/clean":         "0d07454078a67d522865ae1d4e99c991b6d70b559812cafa52abd5f92268bf46",
	"pagepop/target0.02-pilot/7/online/faults":        "dea4398a34328a9e87cb26c9ba7873ebed23e92a349ca2348f34dfe3776fbfeb",
	"pagepop/target0.02-pilot/7/barrier/clean":        "0d07454078a67d522865ae1d4e99c991b6d70b559812cafa52abd5f92268bf46",
	"pagepop/target0.02-pilot/7/barrier/faults":       "dea4398a34328a9e87cb26c9ba7873ebed23e92a349ca2348f34dfe3776fbfeb",
	"pagepop/target0.05-pilot0.2/1/online/clean":      "64673e666034ccf3edfbc9b5c19a181a73be0e054b992a0f6fd1927bb12d59c6",
	"pagepop/target0.05-pilot0.2/1/online/faults":     "7b7ab09e3f556d76dc87430edb34b361c2059cba963f6dfbe00267298b920980",
	"pagepop/target0.05-pilot0.2/1/barrier/clean":     "97e0a8dd343c4ad37a0f20a82486bfa692b7625855097c39d53467e5908d6c14",
	"pagepop/target0.05-pilot0.2/1/barrier/faults":    "e0507ccd9173c14aef5b5054c44fe2c6d6539bf9d1ed9c9b6fd7fb41bdd86a47",
	"pagepop/target0.05-pilot0.2/7/online/clean":      "a2e656f8b15084f3d7d3d7b29baf3c619d5fd6d144a248e814ee910394655a8d",
	"pagepop/target0.05-pilot0.2/7/online/faults":     "db7afd06e3ecd28f1b32613fa7f2a0d9dd76903f7ebae711388e493abd5d00b5",
	"pagepop/target0.05-pilot0.2/7/barrier/clean":     "b209da5945866b3260a82a99a878ddb9d593896723d61476544a0ce05d54aee8",
	"pagepop/target0.05-pilot0.2/7/barrier/faults":    "912808c959463925259e0ecbdab5273c797729ab390557ac8bce1ee3a1b27532",
	"pagepop/absolute80/1/online/clean":               "36eae61be60789e6656958c4c946be54ba172d8e36e719fa4848daed2f0e799a",
	"pagepop/absolute80/1/online/faults":              "8e5f142600e753cc25184fcb669566fc3407740f257c9a15971731bb433c5f68",
	"pagepop/absolute80/1/barrier/clean":              "bdde28b98bcb1175b7a4ba51b1d569c8339e17963fc0b81bc49718e697dca54f",
	"pagepop/absolute80/1/barrier/faults":             "7b36affa2019cc0f543017403d28885c73d2f3afc89ac38a39568af282e614c5",
	"pagepop/absolute80/7/online/clean":               "d1ce569f5586c3fa2a1c902e3b04f8c2946202df8b1d6ccb450887d2331a8169",
	"pagepop/absolute80/7/online/faults":              "5b28ccc50e138363dec5270e8151f15c57d1cc511a2fe581ed8a57538348ed5c",
	"pagepop/absolute80/7/barrier/clean":              "4ba3a8807b0c7c974701dc718060b1515924d368a879dbfc082e4dae6f2931d2",
	"pagepop/absolute80/7/barrier/faults":             "c7b723df838cce58a1219f1488fdf4273be8fadb277c01275e68b52ffb838caf",
	"pagepop/deadline30/1/online/clean":               "28c04f9fad1f91215c2d528ecfe618ce6801f7f2cb3f75bc79cb40444aa8629b",
	"pagepop/deadline30/1/online/faults":              "4c458d5d88eec05d35111a879640e7a23542520bc6d207ba0f93267314f9b569",
	"pagepop/deadline30/1/barrier/clean":              "28c04f9fad1f91215c2d528ecfe618ce6801f7f2cb3f75bc79cb40444aa8629b",
	"pagepop/deadline30/1/barrier/faults":             "4c458d5d88eec05d35111a879640e7a23542520bc6d207ba0f93267314f9b569",
	"pagepop/deadline30/7/online/clean":               "3f1ec82e67e6eed8b205c1d2199ee6c4da41e9014075f1e85d77e6f54e25e69f",
	"pagepop/deadline30/7/online/faults":              "504f6fc7b3d736df6c5f3041217ca5cd918c85533ded2f32a2218108098755f3",
	"pagepop/deadline30/7/barrier/clean":              "3f1ec82e67e6eed8b205c1d2199ee6c4da41e9014075f1e85d77e6f54e25e69f",
	"pagepop/deadline30/7/barrier/faults":             "8286bc5b9bd8ef5b523149d0fce05730ead3d58fb65e8f81b7bfb36e21bc24f7",
	"projectpop/target0.02/1/online/clean":            "21f53d121f3f696307d7770efbfd19b36c769981c476c65ff0e77d73621657bb",
	"projectpop/target0.02/1/online/faults":           "09c4fb3ee26c886bf04a765c5c3e1eb870ae2da493d75f4292bd33d6ad35252c",
	"projectpop/target0.02/1/barrier/clean":           "237a1731913440845afaca7d731142c385f4485e5f9cd93d826a64aadbe2aa88",
	"projectpop/target0.02/1/barrier/faults":          "37c3129b0768186bec39e040cc2d57643c888165c4191233e5ae999a765bcdb7",
	"projectpop/target0.02/7/online/clean":            "e39fcb37bda7a184ac90d6e2772f6fcc82470f0ecaf2fc6a9349c49c3e3e0726",
	"projectpop/target0.02/7/online/faults":           "06fc012e54b334ad673a26245cb7b9bb55a97a08a87e69bf98e8da2ce049a07a",
	"projectpop/target0.02/7/barrier/clean":           "c27afaa18ab10d88de5e3e370e103cf3830373d08deb4283d31db0de702fe6c7",
	"projectpop/target0.02/7/barrier/faults":          "bf800e6f62e9fb359d771d6ee42c5069beabd315f9ee37e2257c3492686407c0",
	"projectpop/target0.05-strict/1/online/clean":     "237a1731913440845afaca7d731142c385f4485e5f9cd93d826a64aadbe2aa88",
	"projectpop/target0.05-strict/1/online/faults":    "37c3129b0768186bec39e040cc2d57643c888165c4191233e5ae999a765bcdb7",
	"projectpop/target0.05-strict/1/barrier/clean":    "237a1731913440845afaca7d731142c385f4485e5f9cd93d826a64aadbe2aa88",
	"projectpop/target0.05-strict/1/barrier/faults":   "37c3129b0768186bec39e040cc2d57643c888165c4191233e5ae999a765bcdb7",
	"projectpop/target0.05-strict/7/online/clean":     "c27afaa18ab10d88de5e3e370e103cf3830373d08deb4283d31db0de702fe6c7",
	"projectpop/target0.05-strict/7/online/faults":    "bf800e6f62e9fb359d771d6ee42c5069beabd315f9ee37e2257c3492686407c0",
	"projectpop/target0.05-strict/7/barrier/clean":    "c27afaa18ab10d88de5e3e370e103cf3830373d08deb4283d31db0de702fe6c7",
	"projectpop/target0.05-strict/7/barrier/faults":   "bf800e6f62e9fb359d771d6ee42c5069beabd315f9ee37e2257c3492686407c0",
	"projectpop/target1-strict/1/online/clean":        "c971b914472212107c01aeed4f00825f71f74eb068731be70df3ee939a6d67c9",
	"projectpop/target1-strict/1/online/faults":       "dcfafdf3650a165216b652dc35f53841f2f1869c647e8e9a56f3d93bf19d7141",
	"projectpop/target1-strict/1/barrier/clean":       "237a1731913440845afaca7d731142c385f4485e5f9cd93d826a64aadbe2aa88",
	"projectpop/target1-strict/1/barrier/faults":      "37c3129b0768186bec39e040cc2d57643c888165c4191233e5ae999a765bcdb7",
	"projectpop/target1-strict/7/online/clean":        "a0604754509e3cd6ba257f6d8959df3252d96eacfe7a197b5a9875a6173dc9af",
	"projectpop/target1-strict/7/online/faults":       "1e46d31bb2c536d6c2fd283dafda25e051f92066c84661f9ecf33544f1641a7d",
	"projectpop/target1-strict/7/barrier/clean":       "c27afaa18ab10d88de5e3e370e103cf3830373d08deb4283d31db0de702fe6c7",
	"projectpop/target1-strict/7/barrier/faults":      "bf800e6f62e9fb359d771d6ee42c5069beabd315f9ee37e2257c3492686407c0",
	"projectpop/target0.02-pilot/1/online/clean":      "daa2817177d5db8f54d55897bd66863ccf7e1fb66eb1c3fce45e99d7dd6c6097",
	"projectpop/target0.02-pilot/1/online/faults":     "e85650d987a96847ed5162001c51cd528d4093546df3e6615b082b35e31de7aa",
	"projectpop/target0.02-pilot/1/barrier/clean":     "daa2817177d5db8f54d55897bd66863ccf7e1fb66eb1c3fce45e99d7dd6c6097",
	"projectpop/target0.02-pilot/1/barrier/faults":    "e85650d987a96847ed5162001c51cd528d4093546df3e6615b082b35e31de7aa",
	"projectpop/target0.02-pilot/7/online/clean":      "8732f35f9b4a43bfc9dfb9ab67e0a7b303e18963ba5a2549c257993f4095c3e4",
	"projectpop/target0.02-pilot/7/online/faults":     "27cf11a53a78e6e9062d46da6d39ddbfbef10b821278961c0d4c7eb2e52f8265",
	"projectpop/target0.02-pilot/7/barrier/clean":     "8732f35f9b4a43bfc9dfb9ab67e0a7b303e18963ba5a2549c257993f4095c3e4",
	"projectpop/target0.02-pilot/7/barrier/faults":    "27cf11a53a78e6e9062d46da6d39ddbfbef10b821278961c0d4c7eb2e52f8265",
	"projectpop/target0.05-pilot0.2/1/online/clean":   "d17471b278138a548303b48d30ee2475df3e4c4816f6f24094bb62d8c0930bb0",
	"projectpop/target0.05-pilot0.2/1/online/faults":  "5354c5a4888173aa8a1fec12ae6002ba1dbac5b0805704cb9edab44f0168ed1d",
	"projectpop/target0.05-pilot0.2/1/barrier/clean":  "ea354084e302d06f13938a634fbcaead2e42eed2d6570608cb850399301a88bd",
	"projectpop/target0.05-pilot0.2/1/barrier/faults": "1cc553e8a0d3343d700f0eec58a758502e0d19e616497ba42544da179db10f4f",
	"projectpop/target0.05-pilot0.2/7/online/clean":   "d038051ee72a1a3bc4a020765513b50e13de23dab1d79f78865d1bbd529fcca1",
	"projectpop/target0.05-pilot0.2/7/online/faults":  "2564104c4a2875850bdc96e505cc6fadc7ce26a8d2b71fcc9279b19ebba8dd95",
	"projectpop/target0.05-pilot0.2/7/barrier/clean":  "dd5f82eeec8d2f52768fafe9be1b7928f989899a4ccb16d2146c9cb480ec96b9",
	"projectpop/target0.05-pilot0.2/7/barrier/faults": "45dc765d0ee69b21a43102530e5204180a0310bdffbcda8114e7c90b0c7dbdc1",
	"projectpop/absolute80/1/online/clean":            "598f739c6eecd9a800feed32b7315d324fab1579eb832cfb991b01a9850c85be",
	"projectpop/absolute80/1/online/faults":           "4acdd1b39813979a56e38df0cc8224b259d0b9e4866927d43c264c71b5a57607",
	"projectpop/absolute80/1/barrier/clean":           "237a1731913440845afaca7d731142c385f4485e5f9cd93d826a64aadbe2aa88",
	"projectpop/absolute80/1/barrier/faults":          "37c3129b0768186bec39e040cc2d57643c888165c4191233e5ae999a765bcdb7",
	"projectpop/absolute80/7/online/clean":            "7150890493d81762a256f5a235ff906ed6530d46615e8e069e712a8d9029afd1",
	"projectpop/absolute80/7/online/faults":           "7a8db4a40e5c4e915007ce96a39a3b07bda555ac2bfae3b890ebb950ba2133d3",
	"projectpop/absolute80/7/barrier/clean":           "c27afaa18ab10d88de5e3e370e103cf3830373d08deb4283d31db0de702fe6c7",
	"projectpop/absolute80/7/barrier/faults":          "bf800e6f62e9fb359d771d6ee42c5069beabd315f9ee37e2257c3492686407c0",
	"projectpop/deadline30/1/online/clean":            "a503a5ede77a1b33906f5f9b6f2f344878142c610d01dc23b858d91f00d3212e",
	"projectpop/deadline30/1/online/faults":           "f9e3c598a129b09be6421455381480bf49908ced1f764db6730651a40a6acd5f",
	"projectpop/deadline30/1/barrier/clean":           "a503a5ede77a1b33906f5f9b6f2f344878142c610d01dc23b858d91f00d3212e",
	"projectpop/deadline30/1/barrier/faults":          "f9e3c598a129b09be6421455381480bf49908ced1f764db6730651a40a6acd5f",
	"projectpop/deadline30/7/online/clean":            "91bd99e25e1361d9926172cf054c14d2c3b090c00a327b43a0e07230863dc6ef",
	"projectpop/deadline30/7/online/faults":           "23be2838f7bdfa9e47a0bbbb88b874991a3b681cfc5476193c1e5504ebfed74f",
	"projectpop/deadline30/7/barrier/clean":           "91bd99e25e1361d9926172cf054c14d2c3b090c00a327b43a0e07230863dc6ef",
	"projectpop/deadline30/7/barrier/faults":          "85f02f79b25888d4a43cac1efa6a262df492e1bdad6f89cc724d517af035b6d1",
	"projectpop/precise/1/online/clean":               "237a1731913440845afaca7d731142c385f4485e5f9cd93d826a64aadbe2aa88",
	"projectpop/precise/1/online/faults":              "a1daeb2b2580e8716739dcc8dbafb1c3410c1649786819bedc926a05dcd83f7a",
	"projectpop/precise/1/barrier/clean":              "237a1731913440845afaca7d731142c385f4485e5f9cd93d826a64aadbe2aa88",
	"projectpop/precise/1/barrier/faults":             "a1daeb2b2580e8716739dcc8dbafb1c3410c1649786819bedc926a05dcd83f7a",
	"projectpop/precise/7/online/clean":               "c27afaa18ab10d88de5e3e370e103cf3830373d08deb4283d31db0de702fe6c7",
	"projectpop/precise/7/online/faults":              "61dd10cd0c42fc48140fe9be79757b5d94b4ffca695f0eb26eebf2b0d8ca820f",
	"projectpop/precise/7/barrier/clean":              "c27afaa18ab10d88de5e3e370e103cf3830373d08deb4283d31db0de702fe6c7",
	"projectpop/precise/7/barrier/faults":             "61dd10cd0c42fc48140fe9be79757b5d94b4ffca695f0eb26eebf2b0d8ca820f",
	"projectpop/static0.1-0.25/1/online/clean":        "bfe9ff5b14941e947b385aa6915714cf1fbeb2846e437705be4d134285eb8914",
	"projectpop/static0.1-0.25/1/online/faults":       "7303d1112e43a1cd1966a4a8ae889c32e998d7b25bedc13125e4d28d86e2c292",
	"projectpop/static0.1-0.25/1/barrier/clean":       "bfe9ff5b14941e947b385aa6915714cf1fbeb2846e437705be4d134285eb8914",
	"projectpop/static0.1-0.25/1/barrier/faults":      "7303d1112e43a1cd1966a4a8ae889c32e998d7b25bedc13125e4d28d86e2c292",
	"projectpop/static0.1-0.25/7/online/clean":        "8f7b386abedc082cf7f99e9dac9b2c8c2a2a1e4a05acc82d4c5fcf53c68fa12c",
	"projectpop/static0.1-0.25/7/online/faults":       "dd7b5accd0bdf11751fbe3b6736ca92a61d274b87dde399648d86fc3b33cae38",
	"projectpop/static0.1-0.25/7/barrier/clean":       "8f7b386abedc082cf7f99e9dac9b2c8c2a2a1e4a05acc82d4c5fcf53c68fa12c",
	"projectpop/static0.1-0.25/7/barrier/faults":      "dd7b5accd0bdf11751fbe3b6736ca92a61d274b87dde399648d86fc3b33cae38",
}

// frozenController names one controller shape of the frozen table.
type frozenController struct {
	name string
	make func() approxhadoop.Controller
}

// frozenControllers builds a fresh controller per run (they carry plan
// state). On this input the strict 5% target and the default 1% pilot
// never find a feasible plan short of the whole input (the precise
// fallback, re-solved every wave); the 100% strict target, the 20%
// pilot, the absolute bound and the deadline are sized so that their
// plans drop part of the input.
var frozenControllers = []frozenController{
	{"target0.02", func() approxhadoop.Controller { return &approx.TargetError{Target: 0.02} }},
	{"target0.05-strict", func() approxhadoop.Controller { return &approx.TargetError{Target: 0.05, Strict: true} }},
	{"target1-strict", func() approxhadoop.Controller { return &approx.TargetError{Target: 1, Strict: true} }},
	{"target0.02-pilot", func() approxhadoop.Controller { return &approx.TargetError{Target: 0.02, Pilot: true} }},
	{"target0.05-pilot0.2", func() approxhadoop.Controller {
		return &approx.TargetError{Target: 0.05, Pilot: true, PilotRatio: 0.2}
	}},
	{"absolute80", func() approxhadoop.Controller { return &approx.TargetError{Absolute: 80} }},
	{"deadline30", func() approxhadoop.Controller { return &approx.DeadlineSLO{Deadline: 30} }},
}

// frozenOpenLoop are the shapes without a feedback loop — no controller
// and fixed ratios — run over ProjectPopularity only. Their hashes were
// recorded at commit 1716e38, before map-compute readahead decoupled the
// worker pool from virtual-time batching.
var frozenOpenLoop = []frozenController{
	{"precise", func() approxhadoop.Controller { return nil }},
	{"static0.1-0.25", func() approxhadoop.Controller { return approx.NewStatic(0.10, 0.25) }},
}

// TestFrozenTargetBytes runs every frozen configuration at Workers 1
// and 4 and compares the hash with the recorded one.
func TestFrozenTargetBytes(t *testing.T) {
	for _, app := range []string{"pagepop", "projectpop"} {
		ctls := frozenControllers
		if app == "projectpop" {
			ctls = append(ctls[:len(ctls):len(ctls)], frozenOpenLoop...)
		}
		for _, ctl := range ctls {
			app, ctl := app, ctl
			t.Run(app+"/"+ctl.name, func(t *testing.T) {
				t.Parallel()
				for _, seed := range []int64{1, 7} {
					for _, barrier := range []bool{false, true} {
						for _, faults := range []bool{false, true} {
							mode, plan := "online", "clean"
							if barrier {
								mode = "barrier"
							}
							if faults {
								plan = "faults"
							}
							name := fmt.Sprintf("%s/%s/%d/%s/%s", app, ctl.name, seed, mode, plan)
							for _, workers := range []int{1, 4} {
								got := frozenTargetRun(t, app, ctl.make(), seed, barrier, faults, workers)
								if want := frozenTarget[name]; got != want {
									t.Errorf("%s workers=%d: sha256 %s, frozen %s", name, workers, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// frozenTargetRun executes one configuration and returns the hex
// SHA-256 of its TSV bytes and counters line. 240 blocks are three
// waves of the default cluster's 80 map slots, so a plan has a first
// wave to learn from and two to spend or drop; 20 k pages over 300-line
// blocks give the page query several thousand keys per solve.
func frozenTargetRun(t *testing.T, app string, ctl approxhadoop.Controller, seed int64, barrier, faults bool, workers int) string {
	t.Helper()
	opts := apps.Options{Seed: seed, Cost: approxhadoop.PaperCost(), Controller: ctl, Barrier: barrier}
	log := workload.AccessLog{Blocks: 240, LinesPerBlock: 300, Projects: 400, Pages: 20000, Seed: seed}
	input := log.File("frozen-target")
	var job *approxhadoop.Job
	switch app {
	case "pagepop":
		job = apps.PagePopularity(input, opts)
	case "projectpop":
		job = apps.ProjectPopularity(input, opts)
	}
	job.Workers = workers
	if faults {
		// Every server hosts unreplicated reduce state, so all are
		// protected from fail-stops: their faults weaken to task faults
		// and slowdowns, which the retry budget turns into degraded
		// (dropped-cluster) maps.
		plan := approxhadoop.RandomFaultPlan(seed+20, 12, 10, 6,
			0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
		job.Faults = &plan
		job.Retry = approxhadoop.RetryPolicy{MaxAttemptsPerTask: 1}
		job.DegradeToDrop = true
	}
	res, err := approxhadoop.NewSystem(approxhadoop.DefaultCluster()).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := approxhadoop.WriteTSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	fmt.Fprintf(&buf, "counters\t%d\t%d\t%d\t%d\t%d\n",
		c.MapsCompleted, c.MapsDropped, c.ItemsProcessed, c.PairsShuffled, c.Waves)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
