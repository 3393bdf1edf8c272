/*===- icb/posix.h - pthread-compatible shim over the ICB runtime -*- C -*-===//
 *
 * Part of the ICB project (PLDI'07 reproduction).
 *
 *===----------------------------------------------------------------------===//
 *
 * The POSIX frontend: a pthread-compatible API surface implemented on the
 * icb::rt controlled scheduler, so ordinary pthreads test programs run
 * under systematic exploration (the CHESS model: intercept the platform's
 * thread/sync API; the paper used Win32, this is the pthreads analogue).
 *
 * A test is a shared object exporting
 *
 *     void icb_test_main(void);
 *
 * driven by tools/icb_run. The test reaches the controlled primitives one
 * of two ways:
 *
 *  1. Header shim: include this header (or compile with
 *     `-include icb/posix.h`). Function-like macros redirect every
 *     supported pthreads/semaphore call site to its icb_* twin. The
 *     native types (pthread_mutex_t, sem_t, ...) are kept as opaque
 *     keys — the frontend never reads or writes their storage, so
 *     PTHREAD_*_INITIALIZER static initialization works unchanged.
 *
 *  2. Linker wrap: compile the unmodified source and link the module with
 *     `-Wl,--wrap,pthread_create,...`. In CMake, link the module against
 *     the icb_posix_wrap target: it carries one --wrap flag per function
 *     of ICB_POSIX_WRAP_FUNCTIONS as INTERFACE link options
 *     (src/posix/CMakeLists.txt). src/posix/Wrap.cpp provides the
 *     __wrap_* forwarders, resolved from the icb_run executable at dlopen
 *     time.
 *
 * Semantics notes (the full table is in DESIGN.md §8):
 *  - Every call is a scheduling point of the systematic scheduler except
 *    TLS get/set, attribute ops, and recursive re-lock/unlock.
 *  - pthread_cond_timedwait is a schedule point whose timeout is modeled:
 *    the waiter stays enabled, and scheduling it before a signal arrives
 *    IS the timeout (equivalently a spurious wakeup) — both outcomes of
 *    every signal/expiry race are explored, no wall clock involved.
 *  - sched_yield/usleep/sleep/nanosleep are yield points (Sleep(0) in the
 *    paper's terms): scheduling points where switching away is free.
 *  - Misuse that POSIX defines as an error returns the documented errno
 *    (EBUSY, EDEADLK, ETIMEDOUT, EPERM, EAGAIN, ...); misuse that POSIX
 *    leaves undefined ends the execution as a reported bug.
 *
 * Plain memory accesses are invisible to the frontend; a test that wants
 * data-race checking annotates them with icb_posix_shared_read/write.
 *
 *===----------------------------------------------------------------------===*/

#ifndef ICB_POSIX_H
#define ICB_POSIX_H

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <semaphore.h>
#include <stdlib.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

/* C11 <threads.h> is shimmed too (thrd_*, mtx_*, cnd_*, tss_*, call_once)
 * when the libc provides it; the aliases reuse the pthread translation —
 * mtx_t/cnd_t/tss_t/once_flag are opaque address keys exactly like their
 * pthread twins. */
#if defined(__has_include)
#if __has_include(<threads.h>)
#define ICB_POSIX_HAS_THREADS_H 1
#include <threads.h>
#endif
#endif

#ifdef __cplusplus
extern "C" {
#endif

/* --- Threads ---------------------------------------------------------- */

int icb_pthread_create(pthread_t *Thread, const pthread_attr_t *Attr,
                       void *(*Start)(void *), void *Arg);
int icb_pthread_join(pthread_t Thread, void **Ret);
int icb_pthread_detach(pthread_t Thread);
pthread_t icb_pthread_self(void);
int icb_pthread_equal(pthread_t A, pthread_t B);
void icb_pthread_exit(void *Ret);

int icb_pthread_attr_init(pthread_attr_t *Attr);
int icb_pthread_attr_destroy(pthread_attr_t *Attr);
int icb_pthread_attr_setdetachstate(pthread_attr_t *Attr, int State);
int icb_pthread_attr_getdetachstate(const pthread_attr_t *Attr, int *State);

/* --- Mutexes ---------------------------------------------------------- */

int icb_pthread_mutex_init(pthread_mutex_t *M, const pthread_mutexattr_t *A);
int icb_pthread_mutex_destroy(pthread_mutex_t *M);
int icb_pthread_mutex_lock(pthread_mutex_t *M);
/* Modeled timeout, like pthread_cond_timedwait: the acquirer stays
 * enabled, and scheduling it while the mutex is still held IS the expiry
 * (glibc-faithful ETIMEDOUT) — both outcomes of every release/deadline
 * race are explored, no wall clock involved. */
int icb_pthread_mutex_timedlock(pthread_mutex_t *M,
                                const struct timespec *AbsTime);
int icb_pthread_mutex_trylock(pthread_mutex_t *M);
int icb_pthread_mutex_unlock(pthread_mutex_t *M);

int icb_pthread_mutexattr_init(pthread_mutexattr_t *A);
int icb_pthread_mutexattr_destroy(pthread_mutexattr_t *A);
int icb_pthread_mutexattr_settype(pthread_mutexattr_t *A, int Type);
int icb_pthread_mutexattr_gettype(const pthread_mutexattr_t *A, int *Type);

/* --- Condition variables ---------------------------------------------- */

int icb_pthread_cond_init(pthread_cond_t *C, const pthread_condattr_t *A);
int icb_pthread_cond_destroy(pthread_cond_t *C);
int icb_pthread_cond_wait(pthread_cond_t *C, pthread_mutex_t *M);
int icb_pthread_cond_timedwait(pthread_cond_t *C, pthread_mutex_t *M,
                               const struct timespec *AbsTime);
int icb_pthread_cond_signal(pthread_cond_t *C);
int icb_pthread_cond_broadcast(pthread_cond_t *C);

/* --- Reader-writer locks ---------------------------------------------- */

int icb_pthread_rwlock_init(pthread_rwlock_t *RW,
                            const pthread_rwlockattr_t *A);
int icb_pthread_rwlock_destroy(pthread_rwlock_t *RW);
int icb_pthread_rwlock_rdlock(pthread_rwlock_t *RW);
int icb_pthread_rwlock_tryrdlock(pthread_rwlock_t *RW);
int icb_pthread_rwlock_wrlock(pthread_rwlock_t *RW);
int icb_pthread_rwlock_trywrlock(pthread_rwlock_t *RW);
int icb_pthread_rwlock_unlock(pthread_rwlock_t *RW);

/* --- Barriers ---------------------------------------------------------- */

int icb_pthread_barrier_init(pthread_barrier_t *B,
                             const pthread_barrierattr_t *A, unsigned Count);
int icb_pthread_barrier_destroy(pthread_barrier_t *B);
/* Returns PTHREAD_BARRIER_SERIAL_THREAD for the releasing arrival and 0
 * for the others, like the real primitive. */
int icb_pthread_barrier_wait(pthread_barrier_t *B);

int icb_pthread_barrierattr_init(pthread_barrierattr_t *A);
int icb_pthread_barrierattr_destroy(pthread_barrierattr_t *A);

/* --- Spinlocks ----------------------------------------------------------
 * Under a model scheduler a spinning acquire and a blocking acquire are
 * the same thing: the scheduler simply never runs the spinner until the
 * lock is free. A self-relock therefore spins forever and is reported as
 * the deadlock it is (POSIX leaves it undefined / optional EDEADLK). */

int icb_pthread_spin_init(pthread_spinlock_t *S, int PShared);
int icb_pthread_spin_destroy(pthread_spinlock_t *S);
int icb_pthread_spin_lock(pthread_spinlock_t *S);
int icb_pthread_spin_trylock(pthread_spinlock_t *S);
int icb_pthread_spin_unlock(pthread_spinlock_t *S);

/* --- Semaphores (return -1 and set errno on failure, like the real
 *     sem_* family) ----------------------------------------------------- */

int icb_sem_init(sem_t *S, int PShared, unsigned Value);
int icb_sem_destroy(sem_t *S);
int icb_sem_wait(sem_t *S);
/* Modeled timeout: waking with the count still zero IS the expiry
 * (returns -1 / ETIMEDOUT). */
int icb_sem_timedwait(sem_t *S, const struct timespec *AbsTime);
int icb_sem_trywait(sem_t *S);
int icb_sem_post(sem_t *S);
int icb_sem_getvalue(sem_t *S, int *Out);

/* --- Once + TLS keys --------------------------------------------------- */

int icb_pthread_once(pthread_once_t *Control, void (*Routine)(void));

int icb_pthread_key_create(pthread_key_t *Key, void (*Dtor)(void *));
int icb_pthread_key_delete(pthread_key_t Key);
int icb_pthread_setspecific(pthread_key_t Key, const void *Value);
void *icb_pthread_getspecific(pthread_key_t Key);

/* --- Yield points ------------------------------------------------------ */

int icb_sched_yield(void);
int icb_usleep(unsigned Usec);
unsigned icb_sleep(unsigned Seconds);
int icb_nanosleep(const struct timespec *Req, struct timespec *Rem);

/* --- C11 threads (aliases over the same translation) ------------------- */

#ifdef ICB_POSIX_HAS_THREADS_H

int icb_thrd_create(thrd_t *Thr, thrd_start_t Fn, void *Arg);
int icb_thrd_join(thrd_t Thr, int *Res);
int icb_thrd_detach(thrd_t Thr);
thrd_t icb_thrd_current(void);
int icb_thrd_equal(thrd_t A, thrd_t B);
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noreturn))
#endif
void icb_thrd_exit(int Res);
void icb_thrd_yield(void);
int icb_thrd_sleep(const struct timespec *Dur, struct timespec *Rem);

int icb_mtx_init(mtx_t *M, int Type);
void icb_mtx_destroy(mtx_t *M);
int icb_mtx_lock(mtx_t *M);
/* Modeled timeout via the pthread_mutex_timedlock translation: waking
 * with the mutex still held IS the expiry (thrd_timedout). */
int icb_mtx_timedlock(mtx_t *M, const struct timespec *Deadline);
int icb_mtx_trylock(mtx_t *M);
int icb_mtx_unlock(mtx_t *M);

int icb_cnd_init(cnd_t *C);
void icb_cnd_destroy(cnd_t *C);
int icb_cnd_wait(cnd_t *C, mtx_t *M);
/* Modeled timeout, like pthread_cond_timedwait: waking unsignaled IS the
 * expiry, so both outcomes of every signal/timeout race are explored. */
int icb_cnd_timedwait(cnd_t *C, mtx_t *M, const struct timespec *Deadline);
int icb_cnd_signal(cnd_t *C);
int icb_cnd_broadcast(cnd_t *C);

void icb_call_once(once_flag *Flag, void (*Fn)(void));

int icb_tss_create(tss_t *Key, tss_dtor_t Dtor);
void icb_tss_delete(tss_t Key);
int icb_tss_set(tss_t Key, void *Value);
void *icb_tss_get(tss_t Key);

#endif /* ICB_POSIX_HAS_THREADS_H */

/* --- Modeled io ---------------------------------------------------------
 * A deterministic per-execution fd table: pipes, AF_UNIX stream socket
 * pairs, eventfds, and epoll instances, numbered upward from a base far
 * above any real fd the harness holds. read() on an empty modeled fd
 * parks the thread exactly like a condvar wait; the peer's write() is the
 * wakeup edge; O_NONBLOCK turns the park into an explorable EAGAIN
 * branch; epoll_wait/poll/select are first-class blocking scheduling
 * points (with modeled timeouts when a timeout is supplied). Calls on
 * fds below the modeled range pass through to the real syscalls, so
 * ordinary stdio keeps working under test. Full semantics table in
 * DESIGN.md §11. */

int icb_pipe(int Fds[2]);
int icb_pipe2(int Fds[2], int Flags);
int icb_socketpair(int Domain, int Type, int Protocol, int Fds[2]);
int icb_eventfd(unsigned Initial, int Flags);
int icb_epoll_create(int Size);
int icb_epoll_create1(int Flags);
int icb_epoll_ctl(int Ep, int Op, int Fd, struct epoll_event *Ev);
int icb_epoll_wait(int Ep, struct epoll_event *Evs, int MaxEvents,
                   int TimeoutMs);
ssize_t icb_read(int Fd, void *Buf, size_t N);
ssize_t icb_write(int Fd, const void *Buf, size_t N);
int icb_close(int Fd);
int icb_fcntl(int Fd, int Cmd, ...);
int icb_poll(struct pollfd *Fds, nfds_t N, int TimeoutMs);
int icb_select(int Nfds, fd_set *R, fd_set *W, fd_set *X, struct timeval *T);

/* --- Managed heap -------------------------------------------------------
 * While an execution is live, the malloc family is served from a
 * quarantine-and-poison arena: freed blocks are poisoned and kept until
 * the execution ends, so use-after-free and double free surface as
 * reported (and replayable) bugs instead of silent corruption. Pointers
 * allocated outside the execution pass through to the real allocator. */

void *icb_malloc(size_t N);
void *icb_calloc(size_t Count, size_t Size);
void *icb_realloc(void *P, size_t N);
void icb_free(void *P);

/* --- Checker surface (no pthreads equivalent) -------------------------- */

/* Annotate a plain shared-memory access so the execution's data-race
 * detector sees it. `What` names the variable in bug reports (may be
 * NULL). For stable cross-execution identity, perform the first annotated
 * access to each location from its creating thread. */
void icb_posix_shared_read(const void *Addr, const char *What);
void icb_posix_shared_write(void *Addr, const char *What);

/* Assert inside test code; failure ends the execution as a reported bug. */
void icb_posix_assert(int Cond, const char *What);

#ifdef __cplusplus
} /* extern "C" */
#endif

/* --- Macro redirection -------------------------------------------------
 * Function-like macros so only call sites are rewritten; declarations in
 * system headers are untouched. Define ICB_POSIX_NO_RENAME to get the
 * icb_* declarations without the redirection. */
#ifndef ICB_POSIX_NO_RENAME

#define pthread_create(t, a, f, g) icb_pthread_create(t, a, f, g)
#define pthread_join(t, r) icb_pthread_join(t, r)
#define pthread_detach(t) icb_pthread_detach(t)
#define pthread_self() icb_pthread_self()
#define pthread_equal(a, b) icb_pthread_equal(a, b)
#define pthread_exit(r) icb_pthread_exit(r)

#define pthread_attr_init(a) icb_pthread_attr_init(a)
#define pthread_attr_destroy(a) icb_pthread_attr_destroy(a)
#define pthread_attr_setdetachstate(a, s) icb_pthread_attr_setdetachstate(a, s)
#define pthread_attr_getdetachstate(a, s) icb_pthread_attr_getdetachstate(a, s)

#define pthread_mutex_init(m, a) icb_pthread_mutex_init(m, a)
#define pthread_mutex_destroy(m) icb_pthread_mutex_destroy(m)
#define pthread_mutex_lock(m) icb_pthread_mutex_lock(m)
#define pthread_mutex_timedlock(m, t) icb_pthread_mutex_timedlock(m, t)
#define pthread_mutex_trylock(m) icb_pthread_mutex_trylock(m)
#define pthread_mutex_unlock(m) icb_pthread_mutex_unlock(m)

#define pthread_mutexattr_init(a) icb_pthread_mutexattr_init(a)
#define pthread_mutexattr_destroy(a) icb_pthread_mutexattr_destroy(a)
#define pthread_mutexattr_settype(a, t) icb_pthread_mutexattr_settype(a, t)
#define pthread_mutexattr_gettype(a, t) icb_pthread_mutexattr_gettype(a, t)

#define pthread_cond_init(c, a) icb_pthread_cond_init(c, a)
#define pthread_cond_destroy(c) icb_pthread_cond_destroy(c)
#define pthread_cond_wait(c, m) icb_pthread_cond_wait(c, m)
#define pthread_cond_timedwait(c, m, t) icb_pthread_cond_timedwait(c, m, t)
#define pthread_cond_signal(c) icb_pthread_cond_signal(c)
#define pthread_cond_broadcast(c) icb_pthread_cond_broadcast(c)

#define pthread_rwlock_init(l, a) icb_pthread_rwlock_init(l, a)
#define pthread_rwlock_destroy(l) icb_pthread_rwlock_destroy(l)
#define pthread_rwlock_rdlock(l) icb_pthread_rwlock_rdlock(l)
#define pthread_rwlock_tryrdlock(l) icb_pthread_rwlock_tryrdlock(l)
#define pthread_rwlock_wrlock(l) icb_pthread_rwlock_wrlock(l)
#define pthread_rwlock_trywrlock(l) icb_pthread_rwlock_trywrlock(l)
#define pthread_rwlock_unlock(l) icb_pthread_rwlock_unlock(l)

#define pthread_barrier_init(b, a, n) icb_pthread_barrier_init(b, a, n)
#define pthread_barrier_destroy(b) icb_pthread_barrier_destroy(b)
#define pthread_barrier_wait(b) icb_pthread_barrier_wait(b)
#define pthread_barrierattr_init(a) icb_pthread_barrierattr_init(a)
#define pthread_barrierattr_destroy(a) icb_pthread_barrierattr_destroy(a)

#define pthread_spin_init(s, p) icb_pthread_spin_init(s, p)
#define pthread_spin_destroy(s) icb_pthread_spin_destroy(s)
#define pthread_spin_lock(s) icb_pthread_spin_lock(s)
#define pthread_spin_trylock(s) icb_pthread_spin_trylock(s)
#define pthread_spin_unlock(s) icb_pthread_spin_unlock(s)

#define sem_init(s, p, v) icb_sem_init(s, p, v)
#define sem_destroy(s) icb_sem_destroy(s)
#define sem_wait(s) icb_sem_wait(s)
#define sem_timedwait(s, t) icb_sem_timedwait(s, t)
#define sem_trywait(s) icb_sem_trywait(s)
#define sem_post(s) icb_sem_post(s)
#define sem_getvalue(s, o) icb_sem_getvalue(s, o)

#define pthread_once(o, f) icb_pthread_once(o, f)

#define pthread_key_create(k, d) icb_pthread_key_create(k, d)
#define pthread_key_delete(k) icb_pthread_key_delete(k)
#define pthread_setspecific(k, v) icb_pthread_setspecific(k, v)
#define pthread_getspecific(k) icb_pthread_getspecific(k)

#define sched_yield() icb_sched_yield()
#define usleep(us) icb_usleep(us)
#define sleep(s) icb_sleep(s)
#define nanosleep(rq, rm) icb_nanosleep(rq, rm)

/* Modeled io + managed heap. read/write/close are function-like macros,
 * so C++ member calls spelled `x.read(a, b, c)` with exactly these
 * arities are rewritten too — the shim targets C-style POSIX modules;
 * use the --wrap delivery for sources where that bites. */
#define pipe(f) icb_pipe(f)
#define pipe2(f, fl) icb_pipe2(f, fl)
#define socketpair(d, t, p, f) icb_socketpair(d, t, p, f)
#define eventfd(i, fl) icb_eventfd(i, fl)
#define epoll_create(n) icb_epoll_create(n)
#define epoll_create1(fl) icb_epoll_create1(fl)
#define epoll_ctl(e, o, f, ev) icb_epoll_ctl(e, o, f, ev)
#define epoll_wait(e, ev, n, t) icb_epoll_wait(e, ev, n, t)
#define read(f, b, n) icb_read(f, b, n)
#define write(f, b, n) icb_write(f, b, n)
#define close(f) icb_close(f)
#define fcntl(...) icb_fcntl(__VA_ARGS__)
#define poll(f, n, t) icb_poll(f, n, t)
#define select(n, r, w, x, t) icb_select(n, r, w, x, t)

#define malloc(n) icb_malloc(n)
#define calloc(c, s) icb_calloc(c, s)
#define realloc(p, n) icb_realloc(p, n)
#define free(p) icb_free(p)

#ifdef ICB_POSIX_HAS_THREADS_H

#define thrd_create(t, f, a) icb_thrd_create(t, f, a)
#define thrd_join(t, r) icb_thrd_join(t, r)
#define thrd_detach(t) icb_thrd_detach(t)
#define thrd_current() icb_thrd_current()
#define thrd_equal(a, b) icb_thrd_equal(a, b)
#define thrd_exit(r) icb_thrd_exit(r)
#define thrd_yield() icb_thrd_yield()
#define thrd_sleep(d, r) icb_thrd_sleep(d, r)

#define mtx_init(m, t) icb_mtx_init(m, t)
#define mtx_destroy(m) icb_mtx_destroy(m)
#define mtx_lock(m) icb_mtx_lock(m)
#define mtx_timedlock(m, d) icb_mtx_timedlock(m, d)
#define mtx_trylock(m) icb_mtx_trylock(m)
#define mtx_unlock(m) icb_mtx_unlock(m)

#define cnd_init(c) icb_cnd_init(c)
#define cnd_destroy(c) icb_cnd_destroy(c)
#define cnd_wait(c, m) icb_cnd_wait(c, m)
#define cnd_timedwait(c, m, d) icb_cnd_timedwait(c, m, d)
#define cnd_signal(c) icb_cnd_signal(c)
#define cnd_broadcast(c) icb_cnd_broadcast(c)

#define call_once(o, f) icb_call_once(o, f)

#define tss_create(k, d) icb_tss_create(k, d)
#define tss_delete(k) icb_tss_delete(k)
#define tss_set(k, v) icb_tss_set(k, v)
#define tss_get(k) icb_tss_get(k)

#endif /* ICB_POSIX_HAS_THREADS_H */

#endif /* ICB_POSIX_NO_RENAME */

#endif /* ICB_POSIX_H */
