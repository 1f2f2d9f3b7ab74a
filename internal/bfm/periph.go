package bfm

import "strings"

// LCD is a character LCD (HD44780-style, 2 lines × 16 columns) driven over
// a parallel port with a tiny command protocol:
//
//	0x01        clear display, home cursor
//	0x80|addr   set cursor (addr = row*16+col, addr < 32)
//	other       write the byte as a character at the cursor, advance
//
// The video-game task T1 animates frames by re-writing the display.
type LCD struct {
	rows, cols int
	grid       [][]byte
	cursor     int
	frames     uint64 // completed clear-to-clear frames
	writes     uint64
	observer   func() // GUI widget refresh hook
}

// NewLCD creates a rows×cols character LCD.
func NewLCD(rows, cols int) *LCD {
	l := &LCD{rows: rows, cols: cols}
	l.grid = make([][]byte, rows)
	for i := range l.grid {
		l.grid[i] = make([]byte, cols)
		for j := range l.grid[i] {
			l.grid[i][j] = ' '
		}
	}
	return l
}

// Name implements Peripheral.
func (l *LCD) Name() string { return "lcd" }

// PortWrite implements Peripheral: decode the LCD protocol.
func (l *LCD) PortWrite(v byte) {
	l.writes++
	switch {
	case v == 0x01:
		for i := range l.grid {
			for j := range l.grid[i] {
				l.grid[i][j] = ' '
			}
		}
		l.cursor = 0
		l.frames++
	case v&0x80 != 0:
		addr := int(v &^ 0x80)
		if addr < l.rows*l.cols {
			l.cursor = addr
		}
	default:
		r, c := l.cursor/l.cols, l.cursor%l.cols
		if r < l.rows {
			l.grid[r][c] = v
		}
		l.cursor = (l.cursor + 1) % (l.rows * l.cols)
	}
	if l.observer != nil {
		l.observer()
	}
}

// PortRead implements Peripheral: busy flag always clear, return cursor.
func (l *LCD) PortRead() byte { return byte(l.cursor) }

// Render returns the display contents as text lines.
func (l *LCD) Render() string {
	var b strings.Builder
	for i, row := range l.grid {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.Write(row)
	}
	return b.String()
}

// Frames returns the number of clear commands processed (animation frames).
func (l *LCD) Frames() uint64 { return l.frames }

// Writes returns the number of bytes written to the device.
func (l *LCD) Writes() uint64 { return l.writes }

// SetObserver registers a hook invoked on every device write (the GUI
// widget wrapping the peripheral).
func (l *LCD) SetObserver(fn func()) { l.observer = fn }

// Keypad is a 4×4 matrix keypad. The hardware side injects key presses
// (GUI events); a press raises the keypad interrupt line through the
// interrupt controller, and the software reads the key code from the port.
type Keypad struct {
	intc *InterruptController
	line int
	last byte
}

// KeypadIntLine is the interrupt line the keypad asserts (8051 INT0).
const KeypadIntLine = 0

// NewKeypad creates a keypad wired to the interrupt controller.
func NewKeypad(intc *InterruptController) *Keypad {
	return &Keypad{intc: intc, line: KeypadIntLine}
}

// Name implements Peripheral.
func (k *Keypad) Name() string { return "keypad" }

// Press injects a key (0..15) from the user/GUI side and asserts INT0.
func (k *Keypad) Press(key byte) {
	k.last = key & 0x0F
	if k.intc != nil {
		k.intc.Raise(k.line)
	}
}

// PortWrite implements Peripheral (row-scan strobe; ignored in this model).
func (k *Keypad) PortWrite(byte) {}

// PortRead implements Peripheral: the last pressed key code.
func (k *Keypad) PortRead() byte { return k.last }

// SSD is a 4-digit seven-segment display. Writes encode digit position in
// the high nibble and value in the low nibble.
type SSD struct {
	digits   [4]byte
	writes   uint64
	observer func()
}

// NewSSD creates the display with all digits blank (0xF).
func NewSSD() *SSD {
	s := &SSD{}
	for i := range s.digits {
		s.digits[i] = 0xF
	}
	return s
}

// Name implements Peripheral.
func (s *SSD) Name() string { return "ssd" }

// PortWrite implements Peripheral: high nibble = digit index, low = value.
func (s *SSD) PortWrite(v byte) {
	s.writes++
	idx := int(v >> 4 & 0x3)
	s.digits[idx] = v & 0x0F
	if s.observer != nil {
		s.observer()
	}
}

// PortRead implements Peripheral.
func (s *SSD) PortRead() byte { return s.digits[0] }

// Value returns the displayed number (digit 0 = most significant), treating
// blank (0xF) digits as zero.
func (s *SSD) Value() int {
	v := 0
	for _, d := range s.digits {
		x := int(d)
		if x == 0xF {
			x = 0
		}
		v = v*10 + x
	}
	return v
}

// Render returns the digits as a string, blanks as '-'.
func (s *SSD) Render() string {
	var b strings.Builder
	for _, d := range s.digits {
		if d == 0xF {
			b.WriteByte('-')
		} else {
			b.WriteByte('0' + d)
		}
	}
	return b.String()
}

// Writes returns the number of device writes.
func (s *SSD) Writes() uint64 { return s.writes }

// SetObserver registers a GUI refresh hook.
func (s *SSD) SetObserver(fn func()) { s.observer = fn }
