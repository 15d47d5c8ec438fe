#include "textflag.h"

// func flushLines(p unsafe.Pointer, n int)
TEXT ·flushLines(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
loop:
	CMPQ CX, $0
	JLE  done
	CLFLUSHOPT (AX)
	ADDQ $64, AX
	SUBQ $64, CX
	JMP  loop
done:
	MFENCE
	RET
