// Analyzer ackafterfsync: structural enforcement of acked ⇒ durable.
// The Batcher promises that by the time an operation's future resolves, the
// epoch containing it has been appended to the WAL and fsynced. The promise
// is easy to break silently — moving one close() a few lines up reorders
// acknowledgement before durability and no test fails until a crash does.
//
// Inside a function annotated //conn:ack-after-fsync, every acknowledgement
// must lexically follow the first durability barrier:
//
//   - barrier: a call to anything annotated //conn:fsync-barrier (the WAL
//     Append method, the coalesce exec hook that wraps it);
//   - ack: a close(...) builtin call (futures here are closed channels) or
//     a call to anything annotated //conn:ack (subscriber tees, respond
//     helpers).
//
// "Lexically follows" is position order within the function body — a
// deliberate simplification of dominance that is exact for the straight-
// line commit paths this engine uses, and errs toward reporting for
// branchy code (an ack in an early-return error path before the barrier is
// flagged; early error paths must fail futures via a non-ack helper or sit
// before any //conn:ack-after-fsync region). The analyzer also flags an
// annotated function that contains no barrier call at all: an ack-bearing
// function with no fsync cannot uphold the contract.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AckAfterFsync is the ackafterfsync analyzer.
var AckAfterFsync = &Analyzer{
	Name: "ackafterfsync",
	Doc:  "future resolution must follow the WAL append+fsync barrier",
	Run:  runAckAfterFsync,
}

func runAckAfterFsync(pass *Pass) error {
	for _, fd := range funcDeclsIn(pass.Files) {
		if pass.Dirs.Has(DirAckAfterFsync, FuncID(fd)) {
			checkAckOrdering(pass, fd)
		}
	}
	return nil
}

func checkAckOrdering(pass *Pass, fd *ast.FuncDecl) {
	// First pass: find the position of the first barrier call.
	barrier := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ref, ok := resolveCallee(pass.Info, call); ok &&
			pass.Annotated(ref.PkgPath, ref.ID, DirFsyncBarrier) {
			if !barrier.IsValid() || call.Pos() < barrier {
				barrier = call.Pos()
			}
		}
		return true
	})

	id := FuncID(fd)
	if !barrier.IsValid() {
		pass.Reportf(fd.Name.Pos(),
			"//conn:ack-after-fsync function %s contains no //conn:fsync-barrier call", id)
		return
	}

	// Second pass: every ack must sit after it.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if call.Pos() >= barrier {
			return true
		}
		if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); isBuiltin {
				if fun.Name == "close" {
					pass.Reportf(call.Pos(),
						"//conn:ack-after-fsync function %s resolves a future (close) before the //conn:fsync-barrier call", id)
				}
				return true
			}
		}
		if ref, ok := resolveCallee(pass.Info, call); ok &&
			pass.Annotated(ref.PkgPath, ref.ID, DirAck) {
			pass.Reportf(call.Pos(),
				"//conn:ack-after-fsync function %s calls //conn:ack %s before the //conn:fsync-barrier call", id, ref.ID)
		}
		return true
	})
}
