package verilog

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/bench"
)

// FuzzLexVerilog checks the lexer's invariants on arbitrary input: no
// panic, exactly one TokEOF and it comes last, positions never move
// backwards, at most one token per rune plus the TokEOF, and every
// operator token is the longest operator at its position.
func FuzzLexVerilog(f *testing.F) {
	ps := bench.NewSuite().Problems
	for _, i := range []int{0, len(ps) / 4, len(ps) / 2, 3 * len(ps) / 4, len(ps) - 1} {
		f.Add(ps[i].GoldenVerilog)
	}
	for _, s := range []string{"", "<<<", "a !== b<<", "x<=é", "\xff\xfe<", "8'hF\x00F", "/* open", "\\esc~&"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks := Tokens(src)
		if n := utf8.RuneCountInString(src); len(toks) > n+1 {
			t.Fatalf("%d tokens for %d runes", len(toks), n)
		}
		runes := []rune(src)
		lineStart := []int{0} // rune offset of each line's first rune
		for i, r := range runes {
			if r == '\n' {
				lineStart = append(lineStart, i+1)
			}
		}
		var prev Pos
		for i, tk := range toks {
			if (tk.Kind == TokEOF) != (i == len(toks)-1) {
				t.Fatalf("token %d of %d is %+v: TokEOF must come last, and only there", i, len(toks), tk)
			}
			if tk.Pos.Line < prev.Line || (tk.Pos.Line == prev.Line && tk.Pos.Col < prev.Col) {
				t.Fatalf("token %d %+v starts before the previous token at %v", i, tk, prev)
			}
			prev = tk.Pos
			if tk.Kind == TokOp {
				off := lineStart[tk.Pos.Line-1] + tk.Pos.Col - 1
				if want := longestOperator(string(runes[off:])); tk.Text != want {
					t.Fatalf("token %d %+v: longest operator at that position is %q", i, tk, want)
				}
			}
		}
	})
}

// longestOperator is the reference for Next's operator match: the
// longest entry of operators that prefixes rest, by plain string search.
func longestOperator(rest string) string {
	best := ""
	for _, op := range operators {
		if strings.HasPrefix(rest, op) && len(op) > len(best) {
			best = op
		}
	}
	return best
}
