package vhdlgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/flc"
	"repro/internal/hdl"
	"repro/internal/protogen"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// digestVariants are the protocol-generation configurations rendered
// for PQ and PQSolo: every statement shape protogen can emit (bounded
// waits, retransmission, parity, arbitration, the repair grammar)
// appears in at least one of them.
var digestVariants = []struct {
	name string
	cfg  protogen.Config
}{
	{"half", protogen.Config{Protocol: spec.HalfHandshake}},
	{"full", protogen.Config{Protocol: spec.FullHandshake}},
	{"robust", protogen.Config{Protocol: spec.FullHandshake, Robust: true}},
	{"robust-parity", protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: true}},
	{"arbitrated", protogen.Config{Protocol: spec.FullHandshake, Arbitrate: true}},
	{"robust-half", protogen.Config{Protocol: spec.HalfHandshake, Robust: true, TimeoutClocks: 8, TurnFlush: true}},
	{"robust-parity-arbitrated", protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: true, Arbitrate: true, GrantHold: true, BusPark: true}},
	{"robust-repaired", protogen.Config{Protocol: spec.FullHandshake, Robust: true, MaxRetries: 2, CommitAck: true, ReleaseStale: true, AckSeq: true, EpochResync: true}},
}

// refinedPQ refines workloads.PQ (or PQSolo) on its prebuilt bus.
func refinedPQ(t testing.TB, solo bool, cfg protogen.Config) *spec.System {
	t.Helper()
	sys, bus := workloads.PQ()
	if solo {
		sys, bus = workloads.PQSolo()
	}
	if _, err := protogen.Generate(sys, bus, cfg); err != nil {
		t.Fatalf("protogen: %v", err)
	}
	return sys
}

// synthesized runs the whole flow on sys and returns it refined.
func synthesized(t testing.TB, sys *spec.System, opts core.Options) *spec.System {
	t.Helper()
	if _, err := core.Synthesize(sys, opts); err != nil {
		t.Fatalf("synthesize %s: %v", sys.Name, err)
	}
	return sys
}

// digestListings renders every pinned listing, in a fixed order, as
// (name, text) pairs.
func digestListings(t *testing.T) [][2]string {
	var out [][2]string
	add := func(name, text string) { out = append(out, [2]string{name, text}) }

	for _, solo := range []bool{false, true} {
		w := "pq"
		if solo {
			w = "pqsolo"
		}
		for _, v := range digestVariants {
			add(w+"/"+v.name, Emit(refinedPQ(t, solo, v.cfg)))
		}
	}
	// The standalone renderers on PQ's generated processes and
	// procedures.
	for _, v := range digestVariants {
		if v.name != "full" && v.name != "robust-parity" {
			continue
		}
		sys := refinedPQ(t, false, v.cfg)
		for _, m := range sys.Modules {
			for _, b := range m.Behaviors {
				add("pq/"+v.name+"/behavior/"+b.Name, EmitBehavior(b))
				for _, p := range b.Procedures {
					add("pq/"+v.name+"/procedure/"+b.Name+"."+p.Name, EmitProcedure(p))
				}
			}
		}
	}

	add("flc", Emit(synthesized(t, flc.New(flc.DefaultConfig()).Sys, core.Options{Workers: 1})))
	for _, n := range []int{1, 2, 4} {
		add(fmt.Sprintf("ethernet-%d", n), Emit(synthesized(t, workloads.Ethernet(n), core.Options{Workers: 1})))
	}
	for n := 2; n <= 6; n++ {
		add(fmt.Sprintf("mesh-%d", n), Emit(synthesized(t, workloads.Mesh(n), core.Options{Workers: 1, ForceWidth: 1 + 3*n})))
	}
	add("answering-2", Emit(synthesized(t, workloads.AnsweringMachine(2), core.Options{Workers: 1})))
	for _, f := range []string{"pq", "pqsolo", "flc", "dma"} {
		sys, err := hdl.ParseFile("../../testdata/" + f + ".sys")
		if err != nil {
			t.Fatal(err)
		}
		add("testdata/"+f+".sys", Emit(synthesized(t, sys, core.Options{Workers: 1})))
	}

	// Seeded random systems at forced widths.
	for seed := int64(1); seed <= 50; seed++ {
		sys := difftest.Generate(seed, difftest.DefaultGenConfig())
		add(fmt.Sprintf("difftest/%d", seed), Emit(synthesized(t, sys, difftestOptions(seed))))
	}
	return out
}

// difftestOptions draws a forced width and a legal option combination
// from the seed: parity needs robust, and both parity and retries need
// the full handshake.
func difftestOptions(seed int64) core.Options {
	opts := core.Options{Workers: 1, ForceWidth: 1 + int(seed*7%16), Arbitrate: seed%3 == 0}
	if seed%2 == 0 {
		opts.Bus.Protocol = spec.HalfHandshake
	}
	if seed%4 == 1 || seed%4 == 2 {
		opts.Robust = true
		opts.TimeoutClocks = []int64{0, 8, 16, 64}[seed%4]
		if opts.Bus.Protocol == spec.FullHandshake {
			opts.MaxRetries = int(seed % 4)
			opts.Parity = seed%5 < 2
		}
	}
	return opts
}

// TestEmitDigests pins Emit, EmitBehavior and EmitProcedure byte for
// byte beyond the single golden listing: each entry is the sha256 of a
// listing recorded with the fmt-based renderer the append-based one
// replaced.
func TestEmitDigests(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range digestListings(t) {
		name, text := l[0], l[1]
		if seen[name] {
			t.Fatalf("duplicate listing name %s", name)
		}
		seen[name] = true
		sum := sha256.Sum256([]byte(text))
		got := hex.EncodeToString(sum[:])
		want, ok := emitDigests[name]
		switch {
		case !ok:
			t.Errorf("no pinned digest for %s: %s", name, got)
		case got != want:
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", name, got, want, len(text))
		}
	}
	for name := range emitDigests {
		if !seen[name] {
			t.Errorf("pinned digest %s has no listing", name)
		}
	}
}

// emitDigests was recorded with the renderer that built every listing
// through fmt.Sprintf and throwaway strings.
var emitDigests = map[string]string{
	"pq/half":                                    "aceb12968b2ee03423cd52ff171b63aa6cfc1587a410c2478f1abec6d2645151",
	"pq/full":                                    "5e67fc71ef5eb5fc97c5e16589884fab82b05e09689cf9e77ba19de4da075c85",
	"pq/robust":                                  "c1259123f44b966994120bdf600904ae1bc3a26203c6b16a810adb340d8f9a64",
	"pq/robust-parity":                           "883e702898d7fa112133c49008754b50d5841526dbfed729cd45a7725e55ad4f",
	"pq/arbitrated":                              "929753841fd052eb6c88c9d5b5469506f5cbe10e7326aaf6f7cb8238a0b31421",
	"pq/robust-half":                             "d26d70359e4ecbd229288532909e55c18df560e477b0e7b2009ab96d85316aba",
	"pq/robust-parity-arbitrated":                "5c9b633f5010077e17a53fb0f33c5dcc1ada178d217a27464f0e90d200df1269",
	"pq/robust-repaired":                         "14e993c9a521e6769f8bf2f7b53ce159d2198d84f2f5ee9ec8bb9c0b93936223",
	"pqsolo/half":                                "7189e70d4d0c4a8dfe6e7fa48567dce828d7170cd5bb8d305ccbe5dadac39920",
	"pqsolo/full":                                "b903e692bfcfde521aad242887228cbe5763a4512de9143056726de14266e8f0",
	"pqsolo/robust":                              "d777cea4f02f00b1f1acd80462f548595d96d8a3d8f3d71d97dfffc6acfced94",
	"pqsolo/robust-parity":                       "fc8d8dbf0b2fb30bf1c6f12ae976b771c3cd16b0a52ec9732e57051466ea99cc",
	"pqsolo/arbitrated":                          "b903e692bfcfde521aad242887228cbe5763a4512de9143056726de14266e8f0",
	"pqsolo/robust-half":                         "385537800225c057b63ee2fd991b3a4f6ac38ebc7e360984deb31e29f77e3e23",
	"pqsolo/robust-parity-arbitrated":            "fc8d8dbf0b2fb30bf1c6f12ae976b771c3cd16b0a52ec9732e57051466ea99cc",
	"pqsolo/robust-repaired":                     "16a8c8c42303ee0cd2a044320f017d876a31618b2fbcb4eadd13d86bd064eb55",
	"pq/full/behavior/P":                         "29560e0a464564a84f886a065f66823bcf23e606fe7322a5982a4739e974e5af",
	"pq/full/procedure/P.SendCH0":                "8dffdfaa9f291a781a255dc4518606061ef8e549f33591938c8a117851f724b1",
	"pq/full/procedure/P.ReceiveCH1":             "51a5a60c431bdb3cba3d1ae41e58c2799956cb1bac683f3631b1dfaf620e7b24",
	"pq/full/procedure/P.SendCH2":                "de40eb038e91bc4507db2e32d12952115d846b9c38ebba2086718c9825efd95a",
	"pq/full/behavior/Q":                         "ca087ad37f924276e405a3ee937fe94c54136a1f147cf1783dc1905849d3f192",
	"pq/full/procedure/Q.SendCH3":                "1f1d469a1ada29f2086eb6aa813e16a0f47373cdb3678a0f14a61217229f0015",
	"pq/full/behavior/Xproc":                     "dd239beeace9ba7668efcd70bae60f582ba26e6c3ebbcbe9a3f44a0bc31c8a38",
	"pq/full/procedure/Xproc.RecvCH0":            "e5c49ed1b9a1d4ca85e17ebd6b10f18c33da9c4a27046ffa412b84b00b8ab398",
	"pq/full/procedure/Xproc.SendCH1":            "4830fb84f27624f25883cb3659c520acbad3b55ac3d48541ee10869a50d4fe76",
	"pq/full/behavior/MEMproc":                   "49381d54d2c47e366d20ee1d13eeddd8db178149146bb7ab3502a741c1711803",
	"pq/full/procedure/MEMproc.RecvCH2":          "69afd6777869c60d7dc386eb9f8462c46a1723fee92c568c94d347d986a6fd31",
	"pq/full/procedure/MEMproc.RecvCH3":          "db972000ae80fc28761564d6655bdc90fdc8386ba3c574715218e9c82a9a90a6",
	"pq/robust-parity/behavior/P":                "66eb73c19173c84f31d0b5e6fd64c05470eaa2eb9408b1f697f641b063c07458",
	"pq/robust-parity/procedure/P.SendCH0":       "2b7a2bed8821a3525b45649f746cfe5aa2b54228100513f8dc1ce95bab55ebc5",
	"pq/robust-parity/procedure/P.ReceiveCH1":    "ee7db6a988714fdca085d66104637418b9f2c56aaca03bf75c4c696ff81b0256",
	"pq/robust-parity/procedure/P.SendCH2":       "9ef9f6cf93f1caf1c34a16e3cbe6ae0db14eb0f7ff3e5ad191a8eccd34e40616",
	"pq/robust-parity/behavior/Q":                "dc8f3f421ffd83784de8d08652bf8e2bc9da558e693435a04d71f6d1c1542801",
	"pq/robust-parity/procedure/Q.SendCH3":       "7b709270a43ed751dc3b4756b4990e113e559235de47ed8dfc162490d4393aa7",
	"pq/robust-parity/behavior/Xproc":            "c51b9b997438d5f19ef8198b0dbdf38870538188af7c309b871e4cec32e2c44d",
	"pq/robust-parity/procedure/Xproc.RecvCH0":   "57ce8c16c6854ea78ae0ac49392e36755b29a99cdab9767a61859800960f43b4",
	"pq/robust-parity/procedure/Xproc.SendCH1":   "c87e5a3259abe1e5bc60c5baf84ce32987b02d776165dfdeb657d016b767b603",
	"pq/robust-parity/behavior/MEMproc":          "e4aad2ee4703de6259fb9c3187c64b908a48b8d124da82786a56660cd2a676f5",
	"pq/robust-parity/procedure/MEMproc.RecvCH2": "b04b0a3ddb81d1f04c86396cd4445373ba2acb6f53b8ed0005cda6692ac54a7e",
	"pq/robust-parity/procedure/MEMproc.RecvCH3": "1996dc7e7da3c756819df862d930329631a7e7274f3d8692644ed17a89111ba1",
	"flc":                 "9f50434a1f02fe0721b0df04019553eee12072ed489053322e12c530f7784ee0",
	"ethernet-1":          "ad40b00746a449df5accad498281fd8e747074680f51b1c103e5a2e0ad15a370",
	"ethernet-2":          "a33efa643373263f1aed6ccabaf7374a5ccb94423e8da99177b0825634be0bc9",
	"ethernet-4":          "1475b2f9dcd2e41025de1e8622aab544e603ca38a1a3b114106178ca03c88894",
	"mesh-2":              "4eb8cdfb8da2ce75d07a037c9fd10cea49d30bf6daf4935e189eb35323443d3a",
	"mesh-3":              "9d4255066445a2351eafbaf5a6c10abaa0b212d49619775a6c2cebee10bac813",
	"mesh-4":              "965367a9b60ce7be4dff10330064a77b170a0344fa4507a9cbaf93535068980b",
	"mesh-5":              "e3d3553f6be7e7183c18126a13a030003801440da6def7df80417e2b83ee78cb",
	"mesh-6":              "45d4617f2165135f4b3afb8934db56834195c27f7c841df337ba6df73a32013c",
	"answering-2":         "7eeccd1d37591d482e721fcbb50c2860bddd5e65d858138f26ea071a37e6da73",
	"testdata/pq.sys":     "942d53fa582a9726160657e39a0b11c025f2c170637fabbb9c70f75c9c291fd8",
	"testdata/pqsolo.sys": "710edbdcccf035f93c2ca0150c27c2afdd80535f963ed3fc14615dab4df277af",
	"testdata/flc.sys":    "9f50434a1f02fe0721b0df04019553eee12072ed489053322e12c530f7784ee0",
	"testdata/dma.sys":    "52ced6f1a17a33ffb0acfdc4cbb426cf0db02d570b0846b433838e83a04f49b1",
	"difftest/1":          "8142216afc26f8627489f85a9735bc2ffacef9c676081568d976f1e2797cd637",
	"difftest/2":          "609a9871a30066196f5abcbc639ff3664a2300be013e0870209fcbcff0e67bf4",
	"difftest/3":          "daed83221b31e3bc9f4cd5a035e4bcf85baad4d0f4443fb8be8d8ae1f5dfff66",
	"difftest/4":          "fe9806631ccaeb23e5fac9d17dd3006f74d27d727ad47d103755b9addc85b8b1",
	"difftest/5":          "9d94e764ed5ba5c8273c9ded06bbe6ca4af9a89db70d4241c60812344b6b1cff",
	"difftest/6":          "03dd6863e73a8418749329d5729e0e069f67f645ed41b609292f03eddd7b5575",
	"difftest/7":          "025faf085b8b0768cb6bdee107d7879a1bc6657aeb0e2ef4c8475b177682a614",
	"difftest/8":          "708d7a26b37ca6341db44a4c1a9bcc10c80dec940af5049584b8520dac907a7a",
	"difftest/9":          "5ee3e8a4f0e74fc00085f4ac52039d56f03c30bbf7beb018b03fa970f6685b94",
	"difftest/10":         "0aa017340077edd17c3c54376f724d6efdd689b1f6831bb9ebe5ca4c01ef3a34",
	"difftest/11":         "14d659fe0595213fe8de07e9e807d13af77be230a12f9ce5c687ad0f685c3916",
	"difftest/12":         "3beab0da1a61afe14ce4302cfa575916add3a54f07ff0c9db738d6d749a029e8",
	"difftest/13":         "2834e4826b6f55163a0da34dc86a6fad85326418bc1f5f452c41b4d3ff158115",
	"difftest/14":         "35453db33ad2cd33d2243ef060e4f31b7320cab8ed4f1c75c1c33f0ba0ff99f0",
	"difftest/15":         "561626fa26ad4b0a10a679d5e07cead7091f8fa84a685f1266b76f6cb8d286a2",
	"difftest/16":         "b985f299e4303f8cf25c9271ebff9b1545dc3da568eb1f605baf760c78ad4855",
	"difftest/17":         "60dc636d1571e51dcf15614911b0cb60e10f58d5f426ae6217f94bf2305934ad",
	"difftest/18":         "2a98ad8034344e6fd5fe886188ff16d2128a617f9f6b5f9c5d6063b18c3ec2dd",
	"difftest/19":         "07d2b166b639a2fa37db4849ff266f91c7f7722496b7cdf987c104fc4a92471a",
	"difftest/20":         "951debcaaab8fe5f5162c900289063d25859cdc9024e822301e33329c0b9e356",
	"difftest/21":         "7ba8d2fbc71c60bbfb77c358788827b41aec4afc39e73ab660a377b2c9f69ffa",
	"difftest/22":         "f15f815120d99e35170dca6f159d9029e2d2c8b931c24f24b6e1ced744944204",
	"difftest/23":         "bbef081f8e143206e6701363b65fcd94226f7602f0a3b61fd5a6c41a26f7fb38",
	"difftest/24":         "af5ab9ab712bd6520ffeb48906b97b5555dc82f2c390d7396928273550836167",
	"difftest/25":         "ea7282380d45cae0980db486e41e606dffc01711a8ec38347a6bc4ffbb9218e3",
	"difftest/26":         "580763c13d381bcffdc0fb15342cef4c3e319ab15e24460bd2e362a8d5ef87ca",
	"difftest/27":         "0e7513f5d48320e0c26286cc45593f67a423d8549f6bf9b6097096893c4bf8fb",
	"difftest/28":         "afe9a89195ce3e8d2b943fd2d8bc20a13f047aa85836c10ee3067cd3bb175c47",
	"difftest/29":         "2ccd75f65871fac6d99f3a30b77b9c03500ebd2f7efe6f9f0ee8a74736cb0d14",
	"difftest/30":         "1d0ae595da82653f899c8943f82dc4988c5856bb991f201465a35592f019d4ff",
	"difftest/31":         "175037c3550479cf3352231606939e660f3f021c48fc3326cda5ed5a229c00d9",
	"difftest/32":         "079a21f072c900719e07ec70c5d0fd65c0455e1e981b162d7c88d04c5968bd94",
	"difftest/33":         "14db34b9ec9d670afbb7dd2dc20b91649c7fb99353d7e46200ef6473238a0167",
	"difftest/34":         "542f4ea8001df06d2592a7c97bd9661f667926e97ab9e994925437d4b6592ee3",
	"difftest/35":         "0c21b19f408560f7d9711c94eb8e89bdfcc5f36c6357f7bde547e2c17d9fb607",
	"difftest/36":         "8d3cc188e1c919b756de26ce5b7359d9144d6e04c56d2d519cbb6373e6c3c294",
	"difftest/37":         "8b95c3fa00479824d63ec43b56994f94d03615c9f435ba70698c4a27ae4eb678",
	"difftest/38":         "5b77e2eacba7d08be71f17e1fca7361de5a97a8507a6372a36e7a4abac86ecb2",
	"difftest/39":         "889d0d2bb2f9aa675b233f09027521a06010d92151928bae0cb8032331d9c7d8",
	"difftest/40":         "13be80733476b5817be454f81b6cbd53ca5f9f3709b517d0f21933bebc6f62ab",
	"difftest/41":         "25c6c950c3d1b7ce613d11502aaf453b1c3a7e37ca8ab0ec6d71f895956b2315",
	"difftest/42":         "99baf768596376f853a28dac2b8f2dc9ec0f0c8ed235062b4ffe60879ce37063",
	"difftest/43":         "309f7f9d97cd81452ed0e767dc275b0dc4eaf1449743d61dc053c605d4b2dd28",
	"difftest/44":         "758a3dd442943e706c468d7bc2bb6fa817e1e4e9fc4b11bd8238ca52d0ff1f92",
	"difftest/45":         "7f53fdf815cce8830b3859247007e39375beb75745352d7811439d08f88e842a",
	"difftest/46":         "147efa7bb7c9f8810ab99101d67c67e62dbb34c9aee096e63705a3148caf2b46",
	"difftest/47":         "897997049ff68a02006f99b33ce6eee86c0fe509523e498505145c21020bae78",
	"difftest/48":         "9c8372306e2aebc24a0cdea2f8dec07cc657c347d465d9760f7d534a9f57c9f0",
	"difftest/49":         "6af1b91503c621a4ebe383bf8839b597a01ad9d2f9c63a8bb0b7a44db7cf8358",
	"difftest/50":         "1041ba85a5e9f82d87844898c0ca1a0dbe793c45fc04d0d0bd6199cf0ea74d17",
}
