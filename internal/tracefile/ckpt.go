package tracefile

import "pinnedloads/internal/ckptio"

// State walks a replay generator's cursors (the streams themselves are the
// trace file, reconstructed on restore).
func (g *replayGen) State(s ckptio.State) {
	s.Int(&g.pos)
	s.Int(&g.wrongPos)
}
