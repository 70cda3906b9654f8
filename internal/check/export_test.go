package check

// CursorSteps returns how many trace entries f's replay cursor has
// stepped so far.
func CursorSteps(f *SwitchFilter) int { return f.cursorSteps }

// TargetFrames returns, for each definition target the replay resolves
// for trace entry i, its symbol and frame.
func TargetFrames(f *SwitchFilter, i int) [][2]int {
	var res [][2]int
	for _, t := range newReplay(f).targets(i) {
		res = append(res, [2]int{t.key.sym, t.key.frame})
	}
	return res
}
