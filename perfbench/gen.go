package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/edatool"
)

// chainSpec is one seeded synthetic design for the bigfile workload: a
// pipeline of distinct clocked 8-bit stage modules fed by an LFSR
// stimulus. The testbench folds the pipeline output into a 16-bit
// signature every cycle and compares it, every checkEvery cycles,
// against values the Go reference model (expected) computed. A PASS is
// therefore an independent check of the front-end and simulator, not
// the simulator grading itself.
type chainSpec struct {
	ops    []stageOp
	lfsr   uint8 // stimulus LFSR seed (non-zero)
	cycles int   // clock cycles after reset; a multiple of checkEvery
}

// stageOp is one pipeline stage: on each rising edge the stage loads
// init under reset, otherwise f(d).
type stageOp struct {
	kind int // 0: d+k, 1: d^k, 2: rotate left by one, 3: (d^k)+swap(d)
	k    uint8
	init uint8
}

const (
	checkEvery  = 64
	numOpKinds  = 4
	chainTop    = "chain"
	passMarker  = edatool.PassMarker
	failMessage = "Failed: signature"
)

// newChain draws a chain of the given length from seed.
func newChain(seed int64, stages, cycles int) chainSpec {
	rng := rand.New(rand.NewSource(seed))
	c := chainSpec{ops: make([]stageOp, stages), lfsr: uint8(1 + rng.Intn(255)), cycles: cycles}
	for i := range c.ops {
		c.ops[i] = stageOp{kind: rng.Intn(numOpKinds), k: uint8(rng.Intn(256)), init: uint8(rng.Intn(256))}
	}
	return c
}

// apply is the reference semantics of one stage.
func (o stageOp) apply(d uint8) uint8 {
	switch o.kind {
	case 0:
		return d + o.k
	case 1:
		return d ^ o.k
	case 2:
		return d<<1 | d>>7
	default:
		return (d ^ o.k) + (d<<4 | d>>4)
	}
}

func nextLFSR(v uint8) uint8 {
	fb := (v>>7 ^ v>>5 ^ v>>4 ^ v>>3) & 1
	return v<<1 | fb
}

// expected runs the reference model: one reset edge, then c.cycles
// edges of LFSR stimulus, returning the signature after every
// checkEvery-th cycle.
func (c chainSpec) expected() []uint16 {
	q := make([]uint8, len(c.ops))
	for i, o := range c.ops {
		q[i] = o.init
	}
	next := make([]uint8, len(q))
	var sig uint16
	lf := c.lfsr
	var out []uint16
	for cyc := 1; cyc <= c.cycles; cyc++ {
		din := lf
		lf = nextLFSR(lf)
		for i, o := range c.ops {
			in := din
			if i > 0 {
				in = q[i-1]
			}
			next[i] = o.apply(in)
		}
		q, next = next, q
		sig = (sig<<1 | sig>>15) ^ uint16(q[len(q)-1])
		if cyc%checkEvery == 0 {
			out = append(out, sig)
		}
	}
	return out
}

// sources renders the design and its self-checking testbench.
func (c chainSpec) sources(lang edatool.Language) (design, tb edatool.Source) {
	return c.render(lang, c.expected())
}

// render writes the design and a testbench that checks the given
// signatures.
func (c chainSpec) render(lang edatool.Language, want []uint16) (design, tb edatool.Source) {
	if lang == edatool.Verilog {
		return edatool.Source{Name: chainTop + ".v", Text: c.verilogDesign()},
			edatool.Source{Name: "tb.v", Text: c.verilogTB(want)}
	}
	return edatool.Source{Name: chainTop + ".vhd", Text: c.vhdlDesign()},
		edatool.Source{Name: "tb.vhd", Text: c.vhdlTB(want)}
}

func (o stageOp) verilogExpr() string {
	switch o.kind {
	case 0:
		return fmt.Sprintf("d + 8'd%d", o.k)
	case 1:
		return fmt.Sprintf("d ^ 8'd%d", o.k)
	case 2:
		return "{d[6:0], d[7]}"
	default:
		return fmt.Sprintf("(d ^ 8'd%d) + {d[3:0], d[7:4]}", o.k)
	}
}

func (c chainSpec) verilogDesign() string {
	var b strings.Builder
	for i, o := range c.ops {
		fmt.Fprintf(&b, "module st%d(input clk, input rst, input [7:0] d, output reg [7:0] q);\n", i)
		fmt.Fprintf(&b, "  always @(posedge clk) begin\n    if (rst) q <= 8'd%d;\n    else q <= %s;\n  end\nendmodule\n\n", o.init, o.verilogExpr())
	}
	n := len(c.ops)
	fmt.Fprintf(&b, "module %s(input clk, input rst, input [7:0] din, output [7:0] dout);\n", chainTop)
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "  wire [7:0] w%d;\n", i)
	}
	b.WriteString("  assign w0 = din;\n")
	for i := range c.ops {
		fmt.Fprintf(&b, "  st%d u%d(.clk(clk), .rst(rst), .d(w%d), .q(w%d));\n", i, i, i, i+1)
	}
	fmt.Fprintf(&b, "  assign dout = w%d;\nendmodule\n", n)
	return b.String()
}

func (c chainSpec) verilogTB(want []uint16) string {
	var b strings.Builder
	fmt.Fprintf(&b, "`timescale 1ns/1ps\nmodule tb;\n  reg clk;\n  reg rst;\n  reg [7:0] din;\n  wire [7:0] dout;\n")
	b.WriteString("  reg [7:0] lf;\n  reg [15:0] sig;\n  integer errors;\n")
	fmt.Fprintf(&b, "  %s dut(.clk(clk), .rst(rst), .din(din), .dout(dout));\n", chainTop)
	b.WriteString("  always #5 clk = ~clk;\n  initial begin\n")
	fmt.Fprintf(&b, "    clk = 0;\n    errors = 0;\n    sig = 0;\n    lf = 8'd%d;\n    din = 0;\n    rst = 1;\n", c.lfsr)
	b.WriteString("    @(posedge clk); #1;\n    rst = 0;\n")
	for i, want := range want {
		fmt.Fprintf(&b, "    repeat (%d) begin\n", checkEvery)
		b.WriteString("      din = lf;\n      lf = {lf[6:0], lf[7] ^ lf[5] ^ lf[4] ^ lf[3]};\n")
		b.WriteString("      @(posedge clk); #1;\n      sig = {sig[14:0], sig[15]} ^ {8'd0, dout};\n    end\n")
		fmt.Fprintf(&b, "    if (sig !== 16'd%d) begin errors = errors + 1; $display(\"Check %d %s expected %d got %%d\", sig); end\n",
			want, i+1, failMessage, want)
	}
	b.WriteString("    $display(\"mismatches: %0d\", errors);\n")
	fmt.Fprintf(&b, "    if (errors == 0) $display(\"%s\");\n    $finish;\n  end\nendmodule\n", passMarker)
	return b.String()
}

const vhdlContext = "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n"

func (o stageOp) vhdlExpr() string {
	switch o.kind {
	case 0:
		return fmt.Sprintf("std_logic_vector(unsigned(d) + %d)", o.k)
	case 1:
		return fmt.Sprintf("d xor x\"%02X\"", o.k)
	case 2:
		return "d(6 downto 0) & d(7)"
	default:
		return fmt.Sprintf("std_logic_vector(unsigned(d xor x\"%02X\") + unsigned(d(3 downto 0) & d(7 downto 4)))", o.k)
	}
}

func (c chainSpec) vhdlDesign() string {
	var b strings.Builder
	for i, o := range c.ops {
		b.WriteString(vhdlContext)
		fmt.Fprintf(&b, "entity st%d is\n  port (clk : in std_logic; rst : in std_logic; d : in std_logic_vector(7 downto 0); q : out std_logic_vector(7 downto 0));\nend entity;\n\n", i)
		fmt.Fprintf(&b, "architecture rtl of st%d is\n  signal r : std_logic_vector(7 downto 0) := (others => '0');\nbegin\n", i)
		fmt.Fprintf(&b, "  process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        r <= x\"%02X\";\n      else\n        r <= %s;\n      end if;\n    end if;\n  end process;\n  q <= r;\nend architecture;\n\n",
			o.init, o.vhdlExpr())
	}
	n := len(c.ops)
	b.WriteString(vhdlContext)
	fmt.Fprintf(&b, "entity %s is\n  port (clk : in std_logic; rst : in std_logic; din : in std_logic_vector(7 downto 0); dout : out std_logic_vector(7 downto 0));\nend entity;\n\n", chainTop)
	fmt.Fprintf(&b, "architecture rtl of %s is\n", chainTop)
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "  signal w%d : std_logic_vector(7 downto 0);\n", i)
	}
	b.WriteString("begin\n  w0 <= din;\n")
	for i := range c.ops {
		fmt.Fprintf(&b, "  u%d: entity work.st%d port map (clk => clk, rst => rst, d => w%d, q => w%d);\n", i, i, i, i+1)
	}
	fmt.Fprintf(&b, "  dout <= w%d;\nend architecture;\n", n)
	return b.String()
}

func (c chainSpec) vhdlTB(want []uint16) string {
	var b strings.Builder
	b.WriteString(vhdlContext)
	b.WriteString("entity tb is end entity;\n\narchitecture sim of tb is\n")
	b.WriteString("  signal clk : std_logic := '0';\n  signal rst : std_logic := '1';\n")
	b.WriteString("  signal din : std_logic_vector(7 downto 0) := (others => '0');\n  signal dout : std_logic_vector(7 downto 0);\n")
	b.WriteString("  signal done : std_logic := '0';\nbegin\n")
	b.WriteString("  clk <= not clk after 5 ns when done = '0' else '0';\n")
	fmt.Fprintf(&b, "  dut: entity work.%s port map (clk => clk, rst => rst, din => din, dout => dout);\n", chainTop)
	b.WriteString("  stim: process\n    variable errors : integer := 0;\n")
	b.WriteString("    variable sig : std_logic_vector(15 downto 0) := (others => '0');\n")
	fmt.Fprintf(&b, "    variable lf : std_logic_vector(7 downto 0) := x\"%02X\";\n  begin\n", c.lfsr)
	b.WriteString("    rst <= '1';\n    wait until rising_edge(clk);\n    wait for 1 ns;\n    rst <= '0';\n")
	for i, want := range want {
		fmt.Fprintf(&b, "    for i in 1 to %d loop\n", checkEvery)
		b.WriteString("      din <= lf;\n      lf := lf(6 downto 0) & (lf(7) xor lf(5) xor lf(4) xor lf(3));\n")
		b.WriteString("      wait until rising_edge(clk);\n      wait for 1 ns;\n")
		b.WriteString("      sig := (sig(14 downto 0) & sig(15)) xor (x\"00\" & dout);\n    end loop;\n")
		fmt.Fprintf(&b, "    if sig /= x\"%04X\" then errors := errors + 1; report \"Check %d %s expected %d\" severity error; end if;\n",
			want, i+1, failMessage, want)
	}
	b.WriteString("    if errors = 0 then\n      report \"mismatches: 0\";\n")
	fmt.Fprintf(&b, "      report \"%s\";\n    end if;\n    done <= '1';\n    wait;\n  end process;\nend architecture;\n", passMarker)
	return b.String()
}

// chainForSize draws a chain whose design plus testbench text in lang
// is about targetBytes long: the fewest stages whose text reaches it
// with every expected signature written at its widest. The stage count
// follows from the per-stage text size, so the same seed gives the same
// design, and the search renders no reference model and takes the same
// number of steps for every seed, so set-up time does not depend on it.
func chainForSize(seed int64, lang edatool.Language, targetBytes, cycles int) chainSpec {
	widest := make([]uint16, cycles/checkEvery)
	for i := range widest {
		widest[i] = math.MaxUint16
	}
	size := func(n int) int {
		d, tb := newChain(seed, n, cycles).render(lang, widest)
		return len(d.Text) + len(tb.Text)
	}
	// Every stage takes more than minStageBytes of text in either HDL.
	const minStageBytes = 64
	lo, hi := 1, max(1, targetBytes/minStageBytes)
	for lo < hi {
		if mid := (lo + hi) / 2; size(mid) >= targetBytes {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return newChain(seed, lo, cycles)
}
