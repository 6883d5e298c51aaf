# XDP packet counter in LLVM's BPF assembly syntax: one atomic add on a
# legacy "maps" array entry, then XDP_PASS. Built with
#   llvm-mc-14 -triple bpf -filetype=obj xdp_count.s -o xdp_count.o
# which, like llc, emits an empty .text section ahead of the xdp section.
	.section	xdp,"ax",@progbits
	.globl	xdp_count
xdp_count:
	r1 = 0
	*(u32 *)(r10 - 4) = r1
	r2 = r10
	r2 += -4
	r1 = counters ll
	call 1
	if r0 == 0 goto out
	r1 = 1
	lock *(u64 *)(r0 + 0) += r1
out:
	r0 = 2
	exit

	.section	maps,"aw",@progbits
	.globl	counters
	.p2align	2
counters:
	.long	2	# BPF_MAP_TYPE_ARRAY
	.long	4	# key size
	.long	8	# value size
	.long	1	# max entries
	.long	0	# map flags
