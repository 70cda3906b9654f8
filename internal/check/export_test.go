package check

// CursorSteps returns how many trace entries f's replay cursor has
// stepped so far.
func CursorSteps(f *SwitchFilter) int { return f.cursorSteps }
