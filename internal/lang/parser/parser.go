// Package parser implements the recursive-descent parser for MiniC.
//
// The grammar is a small structured subset of C:
//
//	program   = { funcDecl | varDecl } .
//	funcDecl  = "func" IDENT "(" [ IDENT { "," IDENT } ] ")" block .
//	varDecl   = "var" IDENT ( "[" expr "]" | [ "=" expr ] ) ";" .
//	block     = "{" { stmt } "}" .
//	stmt      = varDecl | ifStmt | whileStmt | forStmt | "break" ";"
//	          | "continue" ";" | "return" [ expr ] ";" | block
//	          | simpleStmt ";" .
//	simpleStmt= assignment | incdec | callExpr .
//	ifStmt    = "if" "(" expr ")" block [ "else" ( block | ifStmt ) ] .
//	whileStmt = "while" "(" expr ")" block .
//	forStmt   = "for" "(" [simpleOrVar] ";" [expr] ";" [simpleStmt] ")" block .
//
// print(...) parses as a dedicated PrintStmt because printed values are
// output events in the dynamic analyses.
package parser

import (
	"fmt"
	"strconv"

	"eol/internal/lang/ast"
	"eol/internal/lang/lexer"
	"eol/internal/lang/token"
)

// Error is a syntax error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of syntax errors; it implements error.
type ErrorList []*Error

// Error returns the first error plus a count of the rest.
func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Parse parses a complete MiniC program from src. On syntax errors it
// returns a partial AST together with an ErrorList.
func Parse(src string) (*ast.Program, error) {
	toks, lexErrs := lexer.ScanAll(src)
	p := &parser{toks: toks}
	for _, le := range lexErrs {
		p.errs = append(p.errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	prog := p.parseProgram()
	if len(p.errs) > 0 {
		return prog, p.errs
	}
	return prog, nil
}

type parser struct {
	toks []token.Token
	pos  int
	errs ErrorList
}

const maxErrors = 20

func (p *parser) cur() token.Token { return p.toks[p.pos] }
func (p *parser) peek() token.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) < maxErrors {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %q, found %s", k.String(), p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

// sync skips tokens until a statement boundary, for error recovery.
func (p *parser) sync() {
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.SEMI:
			p.next()
			return
		case token.RBRACE, token.VAR, token.FUNC, token.IF, token.WHILE,
			token.FOR, token.BREAK, token.CONTINUE, token.RETURN:
			return
		}
		p.next()
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.FUNC:
			if f := p.parseFuncDecl(); f != nil {
				prog.Funcs = append(prog.Funcs, f)
			}
		case token.VAR:
			if d := p.parseVarDecl(); d != nil {
				prog.Globals = append(prog.Globals, d)
			}
		default:
			p.errorf(p.cur().Pos, "expected declaration, found %s", p.cur())
			before := p.pos
			p.sync()
			if p.pos == before {
				// sync stopped without progress (e.g. a stray '}' at top
				// level); consume the token or error recovery loops.
				p.next()
			}
		}
	}
	return prog
}

func (p *parser) parseFuncDecl() *ast.FuncDecl {
	fpos := p.expect(token.FUNC).Pos
	name := p.parseIdent()
	p.expect(token.LPAREN)
	var params []*ast.Ident
	if !p.at(token.RPAREN) {
		params = append(params, p.parseIdent())
		for p.accept(token.COMMA) {
			params = append(params, p.parseIdent())
		}
	}
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.FuncDecl{FuncPos: fpos, Name: name, Params: params, Body: body}
}

func (p *parser) parseIdent() *ast.Ident {
	t := p.expect(token.IDENT)
	name := t.Lit
	if name == "" {
		name = "_"
	}
	return &ast.Ident{NamePos: t.Pos, Name: name}
}

func (p *parser) parseVarDecl() *ast.VarDeclStmt {
	vpos := p.expect(token.VAR).Pos
	name := p.parseIdent()
	d := &ast.VarDeclStmt{VarPos: vpos, Name: name}
	if p.accept(token.LBRACK) {
		d.Size = p.parseExpr()
		p.expect(token.RBRACK)
	} else if p.accept(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return d
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE).Pos
	b := &ast.BlockStmt{Lbrace: lb}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == before {
			// No progress (e.g. a stray "func" inside a block stops
			// sync immediately): consume one token to guarantee
			// termination of error recovery.
			p.next()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.VAR:
		return p.parseVarDecl()
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		return p.parseWhile()
	case token.FOR:
		return p.parseFor()
	case token.BREAK:
		t := p.next()
		p.expect(token.SEMI)
		return &ast.BreakStmt{BreakPos: t.Pos}
	case token.CONTINUE:
		t := p.next()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{ContinuePos: t.Pos}
	case token.RETURN:
		t := p.next()
		r := &ast.ReturnStmt{ReturnPos: t.Pos}
		if !p.at(token.SEMI) {
			r.Value = p.parseExpr()
		}
		p.expect(token.SEMI)
		return r
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		p.next() // empty statement: ignore
		return nil
	case token.IDENT:
		s := p.parseSimpleStmt()
		p.expect(token.SEMI)
		return s
	}
	p.errorf(p.cur().Pos, "expected statement, found %s", p.cur())
	p.sync()
	return nil
}

// parseSimpleStmt parses an assignment, ++/--, a print statement, or a
// bare call. The trailing semicolon is left to the caller (for-headers
// have none).
func (p *parser) parseSimpleStmt() ast.Stmt {
	if p.cur().Kind == token.IDENT && p.cur().Lit == "print" && p.peek().Kind == token.LPAREN {
		return p.parsePrint()
	}
	lhsPos := p.cur().Pos
	e := p.parseExpr()
	switch {
	case p.cur().Kind.IsAssign():
		op := p.next().Kind
		if !isLvalue(e) {
			p.errorf(lhsPos, "cannot assign to %s", ast.ExprString(e))
		}
		rhs := p.parseExpr()
		return &ast.AssignStmt{LHS: e, Op: op, RHS: rhs}
	case p.at(token.INC) || p.at(token.DEC):
		opTok := p.next()
		if !isLvalue(e) {
			p.errorf(lhsPos, "cannot assign to %s", ast.ExprString(e))
		}
		op := token.ADD_ASSIGN
		if opTok.Kind == token.DEC {
			op = token.SUB_ASSIGN
		}
		return &ast.AssignStmt{LHS: e, Op: op, RHS: &ast.IntLit{ValuePos: opTok.Pos, Value: 1}}
	}
	if _, ok := e.(*ast.CallExpr); !ok {
		p.errorf(lhsPos, "expression %s is not a statement", ast.ExprString(e))
	}
	return &ast.ExprStmt{X: e}
}

func isLvalue(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.IndexExpr:
		return true
	}
	return false
}

func (p *parser) parsePrint() *ast.PrintStmt {
	t := p.next() // 'print'
	p.expect(token.LPAREN)
	s := &ast.PrintStmt{PrintPos: t.Pos}
	if !p.at(token.RPAREN) {
		s.Args = append(s.Args, p.parseExpr())
		for p.accept(token.COMMA) {
			s.Args = append(s.Args, p.parseExpr())
		}
	}
	p.expect(token.RPAREN)
	return s
}

func (p *parser) parseIf() *ast.IfStmt {
	t := p.expect(token.IF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	s := &ast.IfStmt{IfPos: t.Pos, Cond: cond, Then: then}
	if p.accept(token.ELSE) {
		if p.at(token.IF) {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseBlock()
		}
	}
	return s
}

func (p *parser) parseWhile() *ast.WhileStmt {
	t := p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.WhileStmt{WhilePos: t.Pos, Cond: cond, Body: body}
}

func (p *parser) parseFor() *ast.ForStmt {
	t := p.expect(token.FOR)
	p.expect(token.LPAREN)
	s := &ast.ForStmt{ForPos: t.Pos}
	if !p.at(token.SEMI) {
		if p.at(token.VAR) {
			vpos := p.next().Pos
			name := p.parseIdent()
			d := &ast.VarDeclStmt{VarPos: vpos, Name: name}
			if p.accept(token.ASSIGN) {
				d.Init = p.parseExpr()
			}
			s.Init = d
		} else {
			s.Init = p.parseSimpleStmt()
		}
	}
	p.expect(token.SEMI)
	if !p.at(token.SEMI) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		s.Post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	s.Body = p.parseBlock()
	return s
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		op := p.cur().Kind
		prec := op.Precedence()
		if prec < minPrec || prec == 0 {
			return x
		}
		p.next()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{X: x, Op: op, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.SUB, token.NOT, token.TILD, token.ADD:
		t := p.next()
		x := p.parseUnary()
		if t.Kind == token.ADD {
			return x
		}
		return &ast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: x}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.cur().Kind {
	case token.INT:
		t := p.next()
		v, err := strconv.ParseInt(t.Lit, 0, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{ValuePos: t.Pos, Value: v}
	case token.STRING:
		t := p.next()
		return &ast.StringLit{ValuePos: t.Pos, Value: t.Lit}
	case token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	case token.IDENT:
		id := p.parseIdent()
		switch p.cur().Kind {
		case token.LPAREN:
			lp := p.next().Pos
			call := &ast.CallExpr{Fun: id, Lparen: lp}
			if !p.at(token.RPAREN) {
				call.Args = append(call.Args, p.parseExpr())
				for p.accept(token.COMMA) {
					call.Args = append(call.Args, p.parseExpr())
				}
			}
			p.expect(token.RPAREN)
			return call
		case token.LBRACK:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			return &ast.IndexExpr{X: id, Index: idx}
		}
		return id
	}
	t := p.cur()
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	return &ast.IntLit{ValuePos: t.Pos, Value: 0}
}
