package vhdl

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer tokenises VHDL source. Like the Verilog lexer it never fails:
// malformed constructs yield TokError tokens for the parser to report.
type Lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: []rune(src), line: 1, col: 1}
}

// runesPerToken is a low estimate of the mean runes per token of RTL
// source (the bench golden designs and testbenches average about 5).
const runesPerToken = 4

// Tokens lexes all of src, ending with TokEOF.
func Tokens(src string) []Token {
	lx := NewLexer(src)
	// Sized for one token per runesPerToken runes, so a typical source
	// fits without growing, and doubled when it does not: append alone
	// grows a large slice by a quarter at a time, allocating several
	// times the final size.
	out := make([]Token, 0, len(lx.src)/runesPerToken+1)
	for {
		t := lx.Next()
		if len(out) == cap(out) {
			out = append(make([]Token, 0, 2*cap(out)), out...)
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out
		}
	}
}

func (lx *Lexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(n int) rune {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+n]
}

func (lx *Lexer) advance() rune {
	r := lx.src[lx.pos]
	lx.pos++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *Lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.advance()
		case r == '-' && lx.peekAt(1) == '-':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

// vhdlOps lists the operators and punctuation, longest first, so the
// first match at the cursor is the longest one.
var vhdlOps = []string{
	"<=", ">=", "/=", ":=", "=>", "**",
	"=", "<", ">", "+", "-", "*", "/", "&",
	"(", ")", ",", ";", ":", "'", ".", "|",
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	start := lx.here()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}
	}
	r := lx.peek()
	switch {
	case unicode.IsLetter(r):
		return lx.lexIdentOrBitStr(start)
	case unicode.IsDigit(r):
		return lx.lexNumber(start)
	case r == '"':
		return lx.lexStringOrBitStr(start, 'b')
	case r == '\'':
		// Character literal 'x' only when a printable char is followed
		// by a closing quote; otherwise it is the attribute tick.
		if lx.peekAt(2) == '\'' && lx.peekAt(1) != 0 {
			lx.advance()
			ch := lx.advance()
			lx.advance()
			return Token{Kind: TokChar, Text: string(ch), Pos: start}
		}
	}
	if op := matchOp(lx.src[lx.pos:min(lx.pos+maxOpLen, len(lx.src))]); op != "" {
		for range op {
			lx.advance()
		}
		return Token{Kind: TokOp, Text: op, Pos: start}
	}
	lx.advance()
	return Token{Kind: TokError, Text: string(r), Pos: start}
}

// maxOpLen is the rune length of the longest operator ("<=", "**").
// Next matches against a window this wide, so each operator token costs
// O(1) whatever the length of the remaining source.
const maxOpLen = 2

// opsByFirst indexes vhdlOps by their first byte, longest first.
var opsByFirst = func() (t [128][]string) {
	for _, op := range vhdlOps {
		t[op[0]] = append(t[op[0]], op)
	}
	return t
}()

// matchOp returns the longest operator that is a prefix of window, or
// "" if none is.
func matchOp(window []rune) string {
	if uint32(window[0]) >= utf8.RuneSelf {
		return ""
	}
next:
	for _, op := range opsByFirst[window[0]] {
		if len(op) > len(window) {
			continue
		}
		for i := 0; i < len(op); i++ {
			if window[i] != rune(op[i]) {
				continue next
			}
		}
		return op
	}
	return ""
}

// lexIdentOrBitStr lexes an identifier/keyword, or a based bit string
// such as x"AF" / b"1010".
func (lx *Lexer) lexIdentOrBitStr(start Pos) Token {
	from := lx.pos
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			lx.advance()
		} else {
			break
		}
	}
	text := strings.ToLower(string(lx.src[from:lx.pos]))
	if (text == "x" || text == "b" || text == "o") && lx.peek() == '"' {
		t := lx.lexStringOrBitStr(start, text[0])
		return t
	}
	if IsKeyword(text) {
		return Token{Kind: TokKeyword, Text: text, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

// lexStringOrBitStr lexes a double-quoted literal. kind 'b' (default)
// marks a binary bit-string when the content is all 01xz_-; otherwise
// the token is a plain string. kind 'x'/'o' forces based interpretation.
func (lx *Lexer) lexStringOrBitStr(start Pos, kind byte) Token {
	lx.advance() // opening quote
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if r == '"' {
			lx.advance()
			body := sb.String()
			if kind == 'x' || kind == 'o' {
				return Token{Kind: TokBitStr, Text: string(kind) + ":" + body, Pos: start}
			}
			if isBitBody(body) {
				return Token{Kind: TokBitStr, Text: "b:" + body, Pos: start}
			}
			return Token{Kind: TokString, Text: body, Pos: start}
		}
		if r == '\n' {
			break
		}
		sb.WriteRune(lx.advance())
	}
	return Token{Kind: TokError, Text: "unterminated string", Pos: start}
}

func isBitBody(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch r {
		case '0', '1', 'x', 'X', 'z', 'Z', 'u', 'U', '_', '-':
		default:
			return false
		}
	}
	return true
}

func (lx *Lexer) lexNumber(start Pos) Token {
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if unicode.IsDigit(r) || r == '_' {
			sb.WriteRune(lx.advance())
		} else {
			break
		}
	}
	return Token{Kind: TokInt, Text: strings.ReplaceAll(sb.String(), "_", ""), Pos: start}
}
