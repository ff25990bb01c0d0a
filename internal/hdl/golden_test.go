package hdl

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/difftest"
	"repro/internal/flc"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// frontEndInputs returns the .sys texts whose digests are pinned: every
// testdata/*.sys, the printed built-in workloads the end-to-end
// benchmark sends, and printed difftest systems for seeds 1-200.
func frontEndInputs(t testing.TB) map[string]string {
	t.Helper()
	in := map[string]string{}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sys"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in["testdata/"+filepath.Base(f)] = string(b)
	}
	print := func(name string, sys *spec.System) {
		text, err := Print(sys)
		if err != nil {
			t.Fatalf("print %s: %v", name, err)
		}
		in[name] = text
	}
	pq, _ := workloads.PQ()
	print("workload/pq", pq)
	print("workload/flc", flc.New(flc.DefaultConfig()).Sys)
	for _, n := range []int{1, 2, 4} {
		print(fmt.Sprintf("workload/ethernet-%d", n), workloads.Ethernet(n))
	}
	for n := 2; n <= 6; n++ {
		print(fmt.Sprintf("workload/mesh-%d", n), workloads.Mesh(n))
	}
	for seed := int64(1); seed <= 200; seed++ {
		print(fmt.Sprintf("difftest/%d", seed), difftest.Generate(seed, difftest.DefaultGenConfig()))
	}
	return in
}

// TestFrontEndDigests pins Parse and spec.Hash together, byte for byte:
// each entry is the content digest of a parsed input, the value the
// daemon's cache key and its persisted store are addressed by. The
// table was recorded with the lexer that tracked line and column per
// byte and the hash that wrote through hash.Hash.
func TestFrontEndDigests(t *testing.T) {
	in := frontEndInputs(t)
	for name, text := range in {
		sys, err := Parse(text)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := spec.Hash(sys).String()
		want, ok := frontEndDigests[name]
		switch {
		case !ok:
			t.Errorf("no pinned digest for %s: %s", name, got)
		case got != want:
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
	for name := range frontEndDigests {
		if _, ok := in[name]; !ok {
			t.Errorf("pinned digest %s has no input", name)
		}
	}
}

// inBehavior wraps declarations and statements in a one-behavior
// system, so each error case below states only what it is about.
func inBehavior(decls, body string) string {
	return "system S is\n  module M is\n    behavior B is\n" + decls +
		"    begin\n" + body + "    end behavior;\n  end module;\nend system;\n"
}

// inModule wraps module-level declarations in a one-module system.
func inModule(decls string) string {
	return "system S is\n  module M is\n" + decls + "  end module;\nend system;\n"
}

// errorCases holds one input per front-end error site that text can
// reach, with the exact message Parse returns for it.
var errorCases = []struct{ name, src, want string }{
	// lexer
	{"lex/unterminated-hex", inModule("    variable v : bit_vector(7 downto 0) := X\"0A"), "3:44: unterminated hex literal"},
	{"lex/bad-bit-literal", inBehavior("", "      b := '2';\n"), "5:12: invalid bit literal (expected '0' or '1')"},
	{"lex/unterminated-string", inModule("    variable v : bit_vector(1 downto 0) := \"01"), "3:44: unterminated string literal"},
	{"lex/bad-vector-literal", inBehavior("", "      v := \"0121\";\n"), "5:12: invalid bit-vector literal \"0121\""},
	{"lex/unexpected-character", inBehavior("", "\tn := n @ 1;\n"), "5:9: unexpected character '@'"},
	{"lex/error-beats-parse-error", "system is\n  @", "2:3: unexpected character '@'"},
	{"lex/error-after-end", "system S is\nend system;\n-- done\n#", "4:1: unexpected character '#'"},
	{"lex/crlf-columns", "system S is\r\n  module M is\r\n\t  ?", "3:4: unexpected character '?'"},
	{"lex/non-ascii", inBehavior("", "      n := \u00e9;\n"), "5:12: unexpected character 'Ã'"},

	// parser
	{"parse/expect-keyword", "system S\n  module M is\n  end module;\nend system;", "2:3: expected is, found \"module\""},
	{"parse/expect-ident", "system is end system;", "1:8: expected identifier, found \"is\""},
	{"parse/expect-symbol", "system S is\nend system", "2:11: expected ;, found end of input"},
	{"parse/missing-system", "module M is end module;", "1:1: expected system, found \"module\""},
	{"parse/trailing-input", "system S is end system; extra", "1:25: trailing input after end system"},
	{"parse/channel-direction", "system S is\n  channel c : B touches V;\nend system;", "2:17: expected 'reads' or 'writes', found \"touches\""},
	{"parse/module-item", inModule("    begin\n"), "3:5: expected variable, behavior or end module, found \"begin\""},
	{"parse/type-not-keyword", inModule("    variable v : badtype;\n"), "3:18: expected type, found \"badtype\""},
	{"parse/type-wrong-keyword", inModule("    variable v : loop;\n"), "3:18: expected type, found \"loop\""},
	{"parse/array-missing-of", inModule("    variable v : array(0 to 3) bit;\n"), "3:32: expected of, found \"bit\""},
	{"parse/eof-in-statements", "system S is\n  module M is\n    behavior B is\n    begin\n      null;\n", "6:1: unexpected end of input in statement list"},
	{"parse/keyword-at-statement", inBehavior("", "      then;\n"), "5:7: unexpected \"then\" at start of statement"},
	{"parse/call-missing-semicolon", inBehavior("      variable n : integer;\n", "      n + 1;\n"), "6:9: expected ;, found \"+\""},
	{"parse/slice-as-call", inBehavior("      variable v : bit_vector(7 downto 0);\n", "      v(3 downto 0);\n"), "6:20: expected ':=', '<=' or procedure call, found \";\""},
	{"parse/invalid-number", inBehavior("      variable n : integer;\n", "      n := 99999999999999999999;\n"), "6:12: invalid number \"99999999999999999999\""},
	{"parse/invalid-number-underscores", inBehavior("      variable n : integer;\n", "      n := 9_223_372_036_854_775_808;\n"), "6:12: invalid number \"9223372036854775808\""},
	{"parse/expected-expression", inBehavior("      variable n : integer;\n", "      n := ;\n"), "6:12: expected expression, found \";\""},
	{"parse/unterminated-if", inBehavior("", "      if true then null;\n"), "6:9: expected if, found \"behavior\""},
	{"parse/end-loop", inBehavior("", "      loop null; end if;\n"), "5:22: expected loop, found \"if\""},
	{"parse/procedure-params", inBehavior("      procedure p(a : in integer b : integer) is begin null; end;\n", "      null;\n"), "4:34: expected ), found \"b\""},
	{"parse/wait-on-list", inBehavior("", "      wait on 3;\n"), "5:15: expected identifier, found \"3\""},
	{"parse/field-name", inBehavior("", "      x := y.3;\n"), "5:14: expected identifier, found \"3\""},

	// elaborator
	{"elab/duplicate-module-variable", inModule("    variable v : bit;\n    variable v : integer;\n"), "4:14: duplicate module variable \"v\""},
	{"elab/duplicate-behavior", "system S is\n  module M is\n    behavior B is begin null; end behavior;\n  end module;\n  module N is\n    behavior B is begin null; end behavior;\n  end module;\nend system;", "6:5: duplicate behavior \"B\""},
	{"elab/duplicate-behavior-variable", inBehavior("      variable n : integer;\n      variable n : bit;\n", "      null;\n"), "5:16: duplicate variable \"n\" in behavior B"},
	{"elab/channel-unknown-behavior", "system S is\n  module M is\n    variable V : bit;\n  end module;\n  channel c : GHOST writes V;\nend system;", "5:3: channel c: unknown behavior \"GHOST\""},
	{"elab/channel-unknown-variable", "system S is\n  module M is\n    behavior B is begin null; end behavior;\n  end module;\n  channel c : B reads GHOST;\nend system;", "5:3: channel c: unknown module variable \"GHOST\""},
	{"elab/invalid-system", "system S is\n  module M is\n    variable V : bit;\n    behavior B is begin V := '1'; end behavior;\n  end module;\n  channel c : B writes V;\nend system;", "elaborated system invalid: channel \"c\" is intra-module (\"M\"): channels must cross module boundaries"},
	{"elab/vector-not-at-zero", inModule("    variable v : bit_vector(7 downto 1);\n"), "3:18: bit_vector must end at 0 (got 7 downto 1)"},
	{"elab/empty-vector-range", inModule("    variable v : bit_vector(-1 downto 0);\n"), "3:18: empty bit_vector range (-1 downto 0)"},
	{"elab/empty-array-range", inModule("    variable v : array(7 to 0) of bit;\n"), "3:18: empty array range (7 to 0)"},
	{"elab/division-by-zero", inModule("    variable v : bit_vector(8 / 0 downto 0);\n"), "3:31: division by zero in constant"},
	{"elab/non-constant-width", inModule("    variable v : bit_vector(n downto 0);\n"), "3:29: expected constant integer expression"},
	{"elab/non-constant-initializer", inModule("    variable m : integer;\n    variable n : integer := m + 1;\n"), "4:31: initializer must be constant"},
	{"elab/bad-hex-initializer", inModule("    variable v : bit_vector(7 downto 0) := X\"GG\";\n"), "invalid hex digit 'G'"},
	{"elab/assign-to-literal", inBehavior("", "      1 := 2;\n"), "5:7: assignment target is not a variable"},
	{"elab/wait-on-unknown", inBehavior("", "      wait on GHOST;\n"), "5:15: wait on unknown name \"GHOST\""},
	{"elab/wait-for-not-constant", inBehavior("      variable n : integer;\n", "      wait for n;\n"), "6:16: expected constant integer expression"},
	{"elab/unknown-procedure", inBehavior("", "      ghostproc(1);\n"), "5:7: unknown procedure \"ghostproc\" in behavior B"},
	{"elab/procedure-arity", inBehavior("      procedure p(a : in integer) is begin null; end procedure;\n", "      p(1, 2);\n"), "6:7: procedure p takes 1 arguments, got 2"},
	{"elab/out-argument-not-variable", inBehavior("      procedure p(a : out integer) is begin a := 1; end procedure;\n", "      p(3);\n"), "6:9: argument 1 of p must be a variable (out parameter)"},
	{"elab/bad-hex-in-expression", inBehavior("      variable v : bit_vector(7 downto 0);\n", "      v := X\"1Z\";\n"), "6:12: invalid hex digit 'Z'"},
	{"elab/unknown-name", inBehavior("", "      ghost := 1;\n"), "5:7: unknown name \"ghost\""},
	{"elab/field-on-non-record", inBehavior("      variable n : integer;\n      variable m : integer;\n", "      n := m.f;\n"), "7:13: field access on non-record value"},
	{"elab/conv-integer-arity", inBehavior("      variable n : integer;\n", "      n := conv_integer(n, n);\n"), "6:12: conv_integer takes one argument"},
	{"elab/conv-integer-signed-arity", inBehavior("      variable n : integer;\n", "      n := conv_integer_signed(n, n);\n"), "6:12: conv_integer_signed takes one argument"},
	{"elab/conv-bit-vector-arity", inBehavior("      variable v : bit_vector(7 downto 0);\n", "      v := conv_bit_vector(v);\n"), "6:12: conv_bit_vector takes (value, width)"},
	{"elab/conv-bit-vector-width", inBehavior("      variable v : bit_vector(7 downto 0);\n      variable n : integer;\n", "      v := conv_bit_vector(n, n);\n"), "7:31: expected constant integer expression"},
	{"elab/slice-hi-not-constant", inBehavior("      variable v : bit_vector(7 downto 0);\n      variable n : integer;\n", "      v := v(n downto 0);\n"), "7:14: slice bounds must be constant"},
	{"elab/slice-lo-not-constant", inBehavior("      variable v : bit_vector(7 downto 0);\n      variable n : integer;\n", "      v := v(3 downto n);\n"), "7:23: slice bounds must be constant"},
	{"elab/slice-non-vector", inBehavior("      variable n : integer;\n", "      n := n(3 downto 0);\n"), "6:12: slicing a non-bit_vector value"},
	{"elab/slice-out-of-range", inBehavior("      variable v : bit_vector(7 downto 0);\n", "      v := v(12 downto 5);\n"), "6:12: slice (12 downto 5) out of range for width 8"},
	{"elab/array-index-arity", inBehavior("      variable a : array(0 to 3) of bit;\n", "      a(1, 2) := '1';\n"), "6:7: array index takes one subscript"},
	{"elab/bit-index-out-of-range", inBehavior("      variable v : bit_vector(7 downto 0);\n      variable b : bit;\n", "      b := v(9);\n"), "7:12: bit index 9 out of range for width 8"},
	{"elab/cannot-apply", inBehavior("      variable n : integer;\n", "      n := n(1);\n"), "6:12: cannot apply arguments to a integer value"},
}

// TestParseErrorStrings pins the exact text, position included, of one
// error per front-end error site: the daemon returns these in its 400
// bodies. The table was recorded with the lexer that tracked line and
// column per byte and numbers scanned through fmt.Sscanf.
func TestParseErrorStrings(t *testing.T) {
	names := map[string]bool{}
	for _, c := range errorCases {
		if names[c.name] {
			t.Fatalf("duplicate case %s", c.name)
		}
		names[c.name] = true
		_, err := Parse(c.src)
		switch {
		case err == nil:
			t.Errorf("%s: accepted:\n%s", c.name, c.src)
		case err.Error() != c.want:
			t.Errorf("%s: error %q, want %q", c.name, err.Error(), c.want)
		}
	}
}

// frontEndDigests was recorded with the lexer that tracked line and
// column per byte, numbers scanned through fmt.Sscanf and the hash that
// wrote every tag, number and string through hash.Hash.
var frontEndDigests = map[string]string{
	"difftest/1":          "c08f235c8301fce2f26fc3436de3c25652d8304d3220b419cf025153c0312c84",
	"difftest/10":         "2543b50b9aef51803ff64312cb61f4f71c116c4f0f786787127ebbe69ceed8e0",
	"difftest/100":        "a895fa6c504d261550340131ed904a179ed2e025887ad625368dc8f1cf7b64be",
	"difftest/101":        "8522fe3b2c2cc7e08e4899418c0c33d0a3f9a31fd6f8f0be305b321123007549",
	"difftest/102":        "1c1d27b1c5be679d277c21fc0ae9d13e9843707d687569490190624c4aa6fe8a",
	"difftest/103":        "e6be55d3adb475cec6f13f11ea28881b848bbf65d30e87eb713f988b87274763",
	"difftest/104":        "4668374be3d4d0126e9c1417c834d4a2aa8d7eea02d1c2cf9422e43d2c73463a",
	"difftest/105":        "8e0bc62058660c6dfb4dc4fc9bf5fa82803de9571af40c0db9286f186d4d1428",
	"difftest/106":        "08ef6bb5b8ed16224d9a40110c290944060e2048ac134fbd379f1e6042e51a0d",
	"difftest/107":        "e9927c21faf562ef759b33679152bfbac9616a7386bb37901aa2d9319f784420",
	"difftest/108":        "bda683f6a7399cac5dd906b8228406386f85d40348f3d99598f3119f97cd5a83",
	"difftest/109":        "0c13da63fddeeb5b0ff90df57ec75987e0f26ed244286c4f83ad14537efc97dc",
	"difftest/11":         "75dcff664e0e173f062b1a47435a48c713851766d4d375a22797bf015c7aa448",
	"difftest/110":        "d8f5b80eeab76f78b140f094d9639329b0e4812948251e3c346bb7145b7e9d18",
	"difftest/111":        "cda12334d2b4000867bd6e8d2615afd394b01b079c0258e56761939e0244eb2f",
	"difftest/112":        "a21d9d57b98190bf51839ae1c11d99f6e5d1526fa0deeb8e763ccfa14e0bf532",
	"difftest/113":        "22cf06b38089d179cfcba36ca435af0c7a5f303f67dde8076dc722135a931eb5",
	"difftest/114":        "cd0bc9a26269abb89f9582a4cc99807745424c267c2e940fcc1f25e6f699eaa6",
	"difftest/115":        "b3df85985571397ec1c26ee170e3039d97d25d2f3ffd5e66d42d729d23cdf24e",
	"difftest/116":        "61a8a6a61c31fe60672c920686e181bbbdcb61dfe7fe3660c8fdbcc8d2f3bbd3",
	"difftest/117":        "af7f13b830f01f9d81f3a68829d34aa17da4a48199969688fd30ecda90a1bf83",
	"difftest/118":        "ac6907704c5fc09d5ae8c881b8cf547e53233dd8a70fd9e8c3dcb095ec6302a7",
	"difftest/119":        "b654ff1c94a41edb8a22bd49fc349fd8f0becccbd21526479fbfce43a92d91be",
	"difftest/12":         "ce18ae6617160e56a980088ed07c7199ef1e0aefc44a9f738302b1e924624cc0",
	"difftest/120":        "8a7790580127184c2dd5e16b7d9c351502c73d0bdbeec5590f874895baebbe8a",
	"difftest/121":        "e3bcc4561a96e8958db2b374061ec750bc97c065550ea1d8207e1b4a7e98e349",
	"difftest/122":        "5065696572009559791f042d0b7a3354f8cb9eb57263794b990252ac8db6adb1",
	"difftest/123":        "c5c70ba145cb3b903250f1a828e45ac0ccaceea9138d4ff5b454030221a29b1a",
	"difftest/124":        "dd4e1812e25bf3af2645c5b9cbf402f6db86ba89455d0c2ff26bdfd658458920",
	"difftest/125":        "431e73c4b6d2b46113e8be4a696c08691412d44cc3a460bf9b13ad3371f24f44",
	"difftest/126":        "07134a739ca63351181d3cd898ed189fdb4aee00a6543f0bfe3084369c15d853",
	"difftest/127":        "de3257658ee638b705e94a70897ae980bf6bf735e732c1390b2b807c3f0f9890",
	"difftest/128":        "87d1fde48ff9884cbc33ca01efe5aae97cd1f0a8865c5d291d9a1cea39fdbfa2",
	"difftest/129":        "f8c162f50004280756ea599e1af49770a1e9ae2e6bbeacf9d146f36a1cb362f9",
	"difftest/13":         "64cb2cd26e89f88e7b4c15c684c239625931bbf6b3ba1b0d3243354d2b3777d2",
	"difftest/130":        "efa370eb9e41e7841124074ddd1ffd6c04a24860bd06a77274cdd1a87382b1b4",
	"difftest/131":        "d7d6e4ca9d45c9362c3d57c80672250e8d5672513b17ab119b9916791ac72f96",
	"difftest/132":        "7c45088f3a3eda8d860feb471372cf8a01e66897149d84dd8458b67a5180134f",
	"difftest/133":        "273c307081cbfa15208983e05db8209c2391ba72916d8af10af81d8c467311d1",
	"difftest/134":        "8d0ea18457bb9fb37d0b5852e40dc5abe4d3b9806375a57b02468ac9de770b6e",
	"difftest/135":        "6e753af91490995ca11c29e140e00e47272cb48ffad643682f44c5fcde8f23b4",
	"difftest/136":        "e54d7d55afec973c202321d677576c80c78e9c305eb45effa29e27b0545e523a",
	"difftest/137":        "08827cb40614d1605f21994cbf9ae04af2d5e688002fd54576e194bbe4c18563",
	"difftest/138":        "e633d9a3d25aa7d2720f934bc31e81918080728e92fddaee3707c351f1ea6a3c",
	"difftest/139":        "5cb9f2dd83b54dcf64517a515e17affc7a01155af24f81a48c8f2966ae73f495",
	"difftest/14":         "3fb71db1079c87ff91ab9287d34a545d6f60f0d5091574138c10341a0832796d",
	"difftest/140":        "5d06ad9d7bd51d2879faa8bf230b1ee9d80abf747feef530bdf0758384409118",
	"difftest/141":        "2d4053eb2af7214b0a966ab3843741a9c9613778903e52be11f900cd075b2bef",
	"difftest/142":        "5686848fc69b7bbaa2c2149e4f0a632026e6ada7e5950de197c8167437f7afbc",
	"difftest/143":        "10a3a05d74cb5bd75f7046017ae3d3f7db35e5c648e72f8e0c74d60993f60789",
	"difftest/144":        "6bb9be783466852a5d3d9ea45b84930f1a75cd98b5e6c0642e189d5abd5f294f",
	"difftest/145":        "8bb815e7e7fc8444a62d0d6c21bf40ff454d8b0d92666981812744419708b3f9",
	"difftest/146":        "0ad8acf4e165d761ed8a956c886f319f98a52653f6535d9233a7c41f9856c5c5",
	"difftest/147":        "73c7f4c0683d009a38e7eb68ec4ebf6ef643ce6ee3a931310925625719ff909d",
	"difftest/148":        "f76eebeaf0469424e51f05d069867fcc6643afd2c141759bd4e72187bcb22858",
	"difftest/149":        "48f2403c7caf013dd5686aa86e287b287043850a4479da800653ccd46e8e096c",
	"difftest/15":         "fc32a048bdfb4d6d7dd72ebdb5cadf0a1657c3a9624df0466b8388f9c4dfcd8d",
	"difftest/150":        "76dc0149ace162b9973eca9dff7e1f7c0d7baf3f6a2521c166368b4f2cc6a52c",
	"difftest/151":        "cdba865840fa4111d8b3942864f4016d6a6c03f01c45f15ff57a7c8033b88d8f",
	"difftest/152":        "aaf01da6011af929e08bea9bd935fe5892b72d340a636b09ceb983780e570eef",
	"difftest/153":        "877819579eb6228ce328f856fd8dee4f618701eacbb6fba8099b88f501edb6b9",
	"difftest/154":        "247e62e259c933acdf34be4553cba1ca2e1bea7accf61805c068a7fb3529e0f9",
	"difftest/155":        "085673e2a815d1edd39d84fa14139fbb86515ccc4a5afd62504c36d247558a0b",
	"difftest/156":        "d9aa7e765d28319c1f1a89d61c97ec62f209c26361a0bcdd3e28a93a6e7f2052",
	"difftest/157":        "387972cea6cd520de18a3a6d323aeaad917b0017dae957b4d672ec5ee51d5f7f",
	"difftest/158":        "ea18e8d7d53ce936d9f960f8a97dd763e02042f624d7477ca101ba7e12046ee4",
	"difftest/159":        "02dc8880f52ac3815a6158c7e37c5230eeb84af0a7077dab754575e563fc7eea",
	"difftest/16":         "bc2877dcf2ad137c63fab4ce29edb2ad0275e1d058e0c2a8b13c1a97eb2b3eef",
	"difftest/160":        "eeee93602dba776c32a11ab37a3c1dc7da8e1b3aaf818506b3cf221abb0b593a",
	"difftest/161":        "47ebe6044cea9770cb6df50aa2eb5fac222d2e9346b2860000c213ae360500f0",
	"difftest/162":        "ff51e4190afb8cba8ec43a03def90fda3390e7e2e20747196d1a1c4e46cd55c7",
	"difftest/163":        "015e0ae464a7fe757e45da9b660860155e606d6f9cfea5e2a1725d18750d16e8",
	"difftest/164":        "92e4c3c5e99d62c6ee0c9b450e27963618c554bdb323de46ee7d1e0207f449d6",
	"difftest/165":        "780190d6cd8ab8cf76caa2cf86072335a2d6e7086fe641c5dd60de492f9f0005",
	"difftest/166":        "5622a39b02cf37e3c8fe14373a34db2e948886662802effc6c41e06903fc47a8",
	"difftest/167":        "8edc04e308125ba9e7dae771887e67932928234a5671eb629f324f81ebcc77ba",
	"difftest/168":        "f4f9bbe996ff1b40b22e53c0116fe24c6ad49027ccfeacb175d370587173b7e0",
	"difftest/169":        "2c570dcabffe728869a79a347a4cddd758c2ae4f9fde1d53300dd7ec317c99f7",
	"difftest/17":         "e090b7fe46622929cb68f28151001cdcc798c5698ef95c56e84267acf09d4bf0",
	"difftest/170":        "7e0c8d11f1d5d937acfe59b1fcaaebc28afa7263a4af5bfbca04f65a11e638ca",
	"difftest/171":        "d990c14c687a43db0b27c52cc5b16f796a6b16d323bfb17f768e6706d76afc21",
	"difftest/172":        "7b3fca708e670c648099cb23aa521e2ace7e10977761fcd9195f25b889eedfb4",
	"difftest/173":        "97ce50e336b6aeb2b2c5db309c315b34fc3be68e0b5cf9220a5bda29f8a061e6",
	"difftest/174":        "cbcd18465960c6791141d6238278f995ef5f86846841d2e15409b88d58a4b60a",
	"difftest/175":        "19058bdc532cb8226f33a1b7ccf481f7e5bb31387f4ddc48375461705b11df6e",
	"difftest/176":        "cc83b1345fe33b384a03c633fbf3069b64f74b8606d8b53ae242ccee064d9a3b",
	"difftest/177":        "a56c00fb81a2d9dbde1fd55bbfca53b29816148a0e45e0878c9b4ba8a98994b0",
	"difftest/178":        "f754e0f62e76ca349a5600254926604f9a635db6cb0d9b2bee40e734ca6887ab",
	"difftest/179":        "31ff81bec5af17ace3bd9582f806d7043a9f66d546a768f207cce9faf6511cf6",
	"difftest/18":         "e0829230c26abb74ad0d21dc69b10f93c286d6d9fc86c02a88d595bb9224ceb2",
	"difftest/180":        "cfd6a5da1ce68387dc5de7ab4a14b654951fda7a57c6acd43e7a4fd3ca97d0a2",
	"difftest/181":        "9e9a8c9c456f93f1aacf996f5d20a14d072b6be1ae5419cfe4081294afeb4d82",
	"difftest/182":        "e088c178524958330a8338898b995cb7192f403c8c189e15c57b2ee87014bbd4",
	"difftest/183":        "fae535f7cd3741823520d283cc82435d724af7a5e9c11309ab87b244c41af007",
	"difftest/184":        "e0f41043e0c24a5e644a8ff68ff2c8d310c1714cf82e510226bd9f3493398499",
	"difftest/185":        "f515af270b856271f563d789d013b6e2ddee99f2773645683b077d224391f31c",
	"difftest/186":        "735019af6c8130badbef3c213dcd0f75f899982c2689fb8021b636a8fd6fff0f",
	"difftest/187":        "d663973a62196f13f24c8bdff6c65744b59ed7a78a77f35ecf394dadf1267722",
	"difftest/188":        "25f6e78c0fd8ea38016fa5ab14086640d7eb075c0113ed2d24e4ff9a2352ddca",
	"difftest/189":        "26731262c66522ae5a4b6be5b90bbbe045ed0ad9473b3c54bd6238b91f4a3716",
	"difftest/19":         "e719d9d1dee51bd0a181066c2ba5129304b7e618aae6d0c46641fa0408a9739f",
	"difftest/190":        "ac650c7e94d6315c9a1a615be6e1e7d834c5fb744e4932b6822197104ba8339b",
	"difftest/191":        "815ea5e99dca5cc0f4df5812f00f511567e337d5fe0d4d0a0689f7ffd9fb6678",
	"difftest/192":        "0ce2597f3965dec62f990e10a1c28076396565e443c0388f746c71284ae576c3",
	"difftest/193":        "82d19b797caf3d86073607208d84f708bc16f242810c4aafbfee3189fc71d4bb",
	"difftest/194":        "75752373745edb009d87202ddbb65f5fae5ebd7324841c51fd2e65275ab9e3e3",
	"difftest/195":        "042a2cc368abd7bce49a7615ce02086d9668bf1effd6b8cfe5e36b71dd46615f",
	"difftest/196":        "e588b21ea4e7d6687b82af6430fdbe828b3585bec57824f3afa2b35656048661",
	"difftest/197":        "98e62c23f19483fefe3677d892d7435fb26da850a5fed6a9e43a6a6b8f519d04",
	"difftest/198":        "1a7e37422e3ed859080cfb308e45b8445b2ef1313c18dd3f98927934c949b421",
	"difftest/199":        "d3bd9966db2cdd2ea57bd95f2db082998a1c8158698c09d0cfd11e459f6a88d1",
	"difftest/2":          "30507e5e730864f8938a268af60d0c14a8ea2f538da4ec49858ec1383e573edb",
	"difftest/20":         "e1da61e9bb886cb0c2417f70a5f0df077a973ef9d37dcd2edf68a0cee7c58278",
	"difftest/200":        "f8524c3451d5bc96ccaafdd13b2e8ed3b355c6a63470ccc6e035f894e94d7624",
	"difftest/21":         "5b37e3d64eb304b45d66e6bd20ccc996e1492c606a6196e13ec1b45ad977a434",
	"difftest/22":         "bc9fe142f3c0521a268e861b9eb34a346829489e6462a657a43b8c0dd666ca8c",
	"difftest/23":         "4ae8abecd3888e0afbedf1c5156313b0df73a458b9cff7e8b4b28d172ea0016a",
	"difftest/24":         "9cfabfc8fdff42df61bef22f5cb701694e9f88c70ed7e45c6cc564b6de3457b4",
	"difftest/25":         "69aba683184fa8dd1ba34e81f8703ad82d917afdc0b898e5ad4c5d7be24880ea",
	"difftest/26":         "8b96def8ac75daf5bb392299c6e16ed11dbfd943c8d05cd8951c55cd20aade5b",
	"difftest/27":         "8d91969cba9c164bc7c988a1725092ca03e046d675ffb4214414d4448c595592",
	"difftest/28":         "cc951ef9e4732ef94802c7865aeb22140401052abf3dbf869bec02e3f81c9822",
	"difftest/29":         "0f9633d3a19539b64d40806a46a5e491581b2310e1e7871518d363fc0379cc7f",
	"difftest/3":          "4575e62e81764198854726498ab9d055ca854a2bc5ee1279a220f0e163770934",
	"difftest/30":         "7756a40fb0ed7ec69581680a0f6937f77533d27c32f0c75bb62474a368dfd7bf",
	"difftest/31":         "6c4ab8400fdd3ed0ccddc2eb8818429cc1c9ffbb53de8f518e2a6623fa05fd56",
	"difftest/32":         "7971ca1f202daa1d953bd578c5417edff2ff6482237f0cafa34befba9fcfbba3",
	"difftest/33":         "6d81e1f523d978cbb11c35e566be5b0e6d4cab646ab80be263c53ca191fdc3e3",
	"difftest/34":         "f1d63b88befa7609988189ac318b9f4f6b8a29f8df5147dc625d94936d4aa3eb",
	"difftest/35":         "7d9883ff5506a821366b109f75700ccd36e125711c3bd6b83ca282a36581e4c7",
	"difftest/36":         "4fdcf543b37274d02e4b341f4929362147067e22ad59a2fb50190557abd50169",
	"difftest/37":         "259bb97d5a523090ac9c1263d54f1e924dfd9917b65524381905696fcb0fa9b9",
	"difftest/38":         "874f0d6b7f8185e7bd3b2859b25d28e83bac12f7795e80e62ad3473fc63904a0",
	"difftest/39":         "ad3d0470aef7996e4533cdfb9a95d2fdf5bc15373b14cee55133ec6c0fc6a7ac",
	"difftest/4":          "97e6535f5f95524796d92f69d3402d7b5e0fd4f3ca4989587506f46f2862fb0e",
	"difftest/40":         "b95f3ca16c06ecf7aa45965b1faa799807b7cf959a7c6fb49ca7a97625415d83",
	"difftest/41":         "04ff1085a59e6d5495003ce25d7df6941e6f60a140548e0ba9a30c7882e26b4a",
	"difftest/42":         "79d839f5d1d1500eb524cc75018a11d99e1b63ebc8b381d7de32982724a2d4c5",
	"difftest/43":         "d6b34cfc7fb923f65b41ab2f867a06a7c6081a05d405cec4bca873382865c6bc",
	"difftest/44":         "8dca3fc5a6e319b612c6dc6772678bb590597cadf148bbdea10bbca0fd8a7b8f",
	"difftest/45":         "7083badc7d855e11e18e21eb2436cb10ed7e8e87a82978e0196971754d64c5e2",
	"difftest/46":         "d6643d5f4be890c8a36ff89226780c5188f66f38747151d9a73eaaa9035de72f",
	"difftest/47":         "5c4a4cdb10fa8864ce64992f9ca479ffe00bcf49c32c4b7d4af483704f618948",
	"difftest/48":         "8f2e72a92955590178e94072b363efbb0c21398486d0567c3c888b1bd3b9196f",
	"difftest/49":         "7bb04e65392ed307dc64b93673309063d4a0031fb0a5302e1fdb82d3e10f5090",
	"difftest/5":          "1f5aace9fcfc1d8ab5aa642c6c4e5a14f637c7e601700dc1febe069f6ed59f83",
	"difftest/50":         "9b4fdf04942a495aa04238d9e02dad1d2f4b6461517bb0289ee8e88b00e2dab5",
	"difftest/51":         "cd625719ec04ae5a12b588019fe7987d0f89acec8420af178501aabcce2fc3b6",
	"difftest/52":         "425cb72fcd3c41dc03e82563eb49d26d22521db440eab09ceafc49d18d307a91",
	"difftest/53":         "6d595ce15e553c9461fdcbdfef9e50d637897b52c96ffe9cace84bd4d2dc9500",
	"difftest/54":         "23161d91cdf56bdb31438a16bc313d2f335e23095a0c7d01f3bfcebb8fea3fb3",
	"difftest/55":         "c244cd6bd49711b4000770430b98cb493ee2a9d99ccaf0755f60dbc05c4524b7",
	"difftest/56":         "26a4639c1b5a3e35bbfecaa8cc2264f7fefe57186e50a75eacd75325a565cc91",
	"difftest/57":         "bee91dc64195b2877153b7d490eac70abb23c2111e5aebe12f8b9901c2025dc0",
	"difftest/58":         "e22dca5131a006bff059290d1d52eee5bc60d58d7363173b5040bf1c58f5d42b",
	"difftest/59":         "b4912d5a8efe63369f70c4154c09b2a36bd78905330f82c178de7215f3bbfdb9",
	"difftest/6":          "57c78c557d45b48e46e1371141aa5773b9be57ff5dd805037d3f4eb75c9144fe",
	"difftest/60":         "55e447e896651a319b68982ae850745708d250c3781c06cc70735b73857723eb",
	"difftest/61":         "739b4af4657443321147ff11c7b41066d171903e54eaaf1f357318c9afe9d84c",
	"difftest/62":         "2ed4cc649edb968ce25a246c65b4172f6ee2d47ff2aa067b4ce64b8028ad7315",
	"difftest/63":         "fe0b54e60b196034a9489086bdbdb68f25c463b6a0c87f60aa1e03e0c3dde146",
	"difftest/64":         "e7ad06c74aa5d637513a8fa70737c9d168a79d4c0ba8aed77c9af1e9ceb42953",
	"difftest/65":         "cea4a584b018477b53c8982886aba1c420d0891b07d0d313c840184ffc84ba22",
	"difftest/66":         "b6b9792849255762e13247991e0f6e85cece3d3deb408c17968c509a547e5722",
	"difftest/67":         "dd3d0b9c9fc10a20098f42f9301dca9d47ebb131465b1619ee39699fa3752f0a",
	"difftest/68":         "19f58c43be3f3a2657703bd7993e8ac3ba6ead10b260d5af85a972a6ea9b1d0a",
	"difftest/69":         "f40492edd98313e8d0c0dc6e729f98bedcc3a4a2f5cda747f736307ae5b4c71d",
	"difftest/7":          "728b3c7b5bcedaf8c267ce3039eb8bc0bd134788109f6f21b540f446a4d42f94",
	"difftest/70":         "8db4e4ec66964e1d0c6a2caace563dc8440f240ce9acbdcfa5d9b89144a627bf",
	"difftest/71":         "3026df1317cb53b7065e81eed0347ce82f76cb802301b7433872875d52270c1b",
	"difftest/72":         "a8871695b3a15bc2b9478a96eb8cd860a280d424a05b5b5efd1578bc25b4ea0a",
	"difftest/73":         "0f9ffd4c8dca762d8ef6b5bb47e6412fe27c4b0e4649498b3af8d3619dd4c65e",
	"difftest/74":         "e0e4fcfdef345832f978d6eb374bff67cfe93168928229ce27fea0c9236b1131",
	"difftest/75":         "4daad0e2dc807b16d89bd4ea2c5ef44f250c15763f0ef42cbbce60dc785fe95b",
	"difftest/76":         "9651e080fc60f50ce0c57ac26f8ba54f2e069bfce5e00a6c17d74634378b9d2b",
	"difftest/77":         "edf6d970c086e56482f24f4ad0c7af58f59b7027ab68ccb75f3e5f6bbaa1420c",
	"difftest/78":         "e45f732aa4f73b116105e2cc47172192b04da7b214ee06cdcebf5bc158756130",
	"difftest/79":         "351439978fc37e4001bfb2af1c6882e75c327eb133a9bd0b4a92ae1e6a75692c",
	"difftest/8":          "bf4cc70c50d019fdf610fa936f6fc41642ff8279453ab3f5171d146857029b43",
	"difftest/80":         "3f79f99f7aa91ac4d28f14fa37d2c7429979333015e9d8cc6550b39bea23bfe9",
	"difftest/81":         "e52dab1c803da6a55f7594b9a5e24cbee58771d8fed145e87ded509c36a3d9fe",
	"difftest/82":         "4b20703d0e7f3161806fe69d2b0ad28c2e7a9caabccc5c7cf04eea6e8d4692d0",
	"difftest/83":         "a5906b02bfa051c17b9f8449a2240919ddf7fb78efc56147c36d65517fccf045",
	"difftest/84":         "85cf9fa77a32cf461489305dde2fb5809d910588f180639db4d8dda6c26337d1",
	"difftest/85":         "820c72bfce04b3004722799eccf1346ff602142cb540a1829e8db1ba2d039999",
	"difftest/86":         "f6e52b5d8a37a96c627f8b4139ad7586519b5b19cb4d26e341be1b91ab52678e",
	"difftest/87":         "80d6c4f8ba8e3dd5888218249238037a351b88d53eea8ba48ca1e9a13b59b93c",
	"difftest/88":         "7a27eec73a500bf5c7b7e89be1501dc2d8dcbeecfc2c82538869aff3b37878e0",
	"difftest/89":         "bed44345834358337154e071b0fd8a3ed969403f0085383ad912eeaa9c709552",
	"difftest/9":          "5e4ba9ab7fbb7df92e7cd7458f13a8416bbc71c84c035198b435cac0f9193d24",
	"difftest/90":         "951bb6609ec5f4152e782b1cf7fa3f59a04e1f8f617f91e06b2753b5c4aa66a5",
	"difftest/91":         "28f1af8e8d99812ed7376706ba266f7494c86d3dab2a028aa7bb6cd66feaac56",
	"difftest/92":         "4d757cea5b5b30028998dde927e1667665d5d27e6d5ac579e943cc1af814cd70",
	"difftest/93":         "a1b151e769b12bcec20fe409bca1d29778092367167e374a98c65ec399cd79a1",
	"difftest/94":         "3fdb2341311118ce0934bf2620cfe4616ef7fd5c414c431d2626ad8f1a1d2910",
	"difftest/95":         "8e991c0da94286dd80747d273d6e1eb14cc506395d7735cc7380e61791a3ab83",
	"difftest/96":         "58c4ffd3d820cac092b6806f5a777044f847666ec78a0074a60c81718b5605fb",
	"difftest/97":         "f3a73484dce636d60c5ebf2d47ca6ab4fedd0662c451d09452e7b36b85400693",
	"difftest/98":         "b5d11e6914c3eb807d9c6e25a814db725fd5d7e41c88de500df60bdac1a1c9be",
	"difftest/99":         "f806a3d1503ad034167d79028366959d2d457fa800de7bebd418e9fb7e6a5b62",
	"testdata/dma.sys":    "a9ee66688a50cc8444b5878b01c44785174cb551ba9e574438c1f0a8b8af34fa",
	"testdata/flat.sys":   "60f11d7b566a64fc0d32ec0e1ac4c2e64a30efd8860f36442ad5fe5a7b79826a",
	"testdata/flc.sys":    "a2f752207414831c270307290cfeb98be3e1431f8d6ef19512c6cfc2c5fd7028",
	"testdata/pq.sys":     "83f3a7f1905b30e3748e2a134ad505b9552f1fa2e7157b695d3599c636b43aec",
	"testdata/pqsolo.sys": "0268b3865801eae21c6d5ec3e6a01c25d112f4f786f6bfeb644f4509d3848a09",
	"workload/ethernet-1": "82d65f611c99f88ea6e5bbc5fa012721c17f7d58b23c31dd119efa108944193f",
	"workload/ethernet-2": "34b1416f74906584816569c43cb6e6c34d5a37e82d36c631b459cb4a4bf79dd9",
	"workload/ethernet-4": "ad8025d76c47c293270c119bfbdfd0f640443e4b21d535a943458e9ff5b1077b",
	"workload/flc":        "a2f752207414831c270307290cfeb98be3e1431f8d6ef19512c6cfc2c5fd7028",
	"workload/mesh-2":     "3e1e8dbc490a886513a054fa6be674e2a12c4aee3e4e2e94d020016d6f9f1172",
	"workload/mesh-3":     "d3619d10974aebf5d6c72d00d0bf7d57504a00851131483cb5da78679d3bf14f",
	"workload/mesh-4":     "48a38d0b7448620512e7f07f4fa96533664ae9106667ebff0a1002f57dd71a09",
	"workload/mesh-5":     "66a791ac6538c7ddcd76c816dad42f5dbdf38a1d02a49533bb0e6a1a46adbd2a",
	"workload/mesh-6":     "5bbf088ec66bc648dff58ba3c236751c600f4ff1fa72c5b0b06d430dc5e22243",
	"workload/pq":         "55dabd49d4adc5661325146202b889a5f5c5be61ba062785b0123fd411f9f10b",
}
