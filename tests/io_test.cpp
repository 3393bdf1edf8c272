//===- tests/io_test.cpp - Modeled io subsystem tests ---------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modeled fd table under full schedule exploration: deterministic fd
/// numbering and serial object names (identical across --jobs 1 vs N,
/// with identical deterministic io metrics), partial-read / short-write /
/// EOF / EPIPE / EAGAIN semantics, the epoll edge-triggered lost-wakeup
/// regression (epoll_wait must be a real blocking scheduling point for
/// the deadlock to be explored at all), modeled poll timeouts (both
/// outcomes of every readiness/expiry race), and the managed heap's
/// double-free and use-after-free reporting.
///
/// The icb_* entry points are called directly (ICB_POSIX_NO_RENAME): this
/// translation unit also contains gtest, which owns real file
/// descriptors and the real heap.
///
//===----------------------------------------------------------------------===//

#define ICB_POSIX_NO_RENAME
#include "icb/posix.h"

#include "io/IoContext.h"
#include "obs/Metrics.h"
#include "posix/Runtime.h"
#include "rt/Explore.h"
#include "testutil/ResultChecks.h"
#include <cstring>
#include <gtest/gtest.h>

using namespace icb;
using namespace icb::rt;

namespace {

ExploreResult exploreIo(std::function<void()> Body, unsigned MaxBound,
                        bool StopAtFirst = false, unsigned Jobs = 1,
                        obs::MetricsRegistry *Metrics = nullptr,
                        bool Por = false) {
  ExploreOptions Opts;
  Opts.Limits.MaxExecutions = 200000;
  Opts.Limits.StopAtFirstBug = StopAtFirst;
  Opts.Limits.MaxPreemptionBound = MaxBound;
  Opts.Jobs = Jobs;
  Opts.Metrics = Metrics;
  Opts.Por = Por;
  IcbExplorer E(Opts);
  return E.explore(posix::makeTestCase("io-test", std::move(Body)));
}

//===----------------------------------------------------------------------===//
// Fd table determinism: numbers and serial names are schedule functions
//===----------------------------------------------------------------------===//

void fdNamingBody() {
  int P[2], Sv[2];
  icb_posix_assert(icb_pipe(P) == 0, "pipe");
  icb_posix_assert(P[0] == io::kFdBase && P[1] == io::kFdBase + 1,
                   "pipe fds are the first two modeled slots");
  icb_posix_assert(icb_socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) == 0,
                   "socketpair");
  int Efd = icb_eventfd(0, 0);
  int Ep = icb_epoll_create1(0);
  icb_posix_assert(Efd == io::kFdBase + 4 && Ep == io::kFdBase + 5,
                   "creation order numbers fds serially");

  io::IoContext &Io = io::IoContext::current();
  icb_posix_assert(Io.fdName(P[0]) == "pipe#0" && Io.fdName(P[1]) == "pipe#0",
                   "both pipe ends name the same serial stream");
  icb_posix_assert(Io.fdName(Sv[0]) == "sock#0.a" &&
                       Io.fdName(Sv[1]) == "sock#0.b",
                   "socketpair serial names");
  icb_posix_assert(Io.fdName(Efd) == "efd#0" && Io.fdName(Ep) == "epoll#0",
                   "eventfd/epoll serial names");

  // Lowest-free reuse: closing the read end frees slot 0 for the next
  // creation, and the serial counter still advances (pipe#1).
  icb_posix_assert(icb_close(P[0]) == 0, "close read end");
  int Q[2];
  icb_posix_assert(icb_pipe(Q) == 0, "second pipe");
  icb_posix_assert(Q[0] == io::kFdBase && Q[1] == io::kFdBase + 6,
                   "lowest-free slot reuse is deterministic");
  icb_posix_assert(Io.fdName(Q[0]) == "pipe#1", "serial names never recycle");

  icb_close(Q[0]);
  icb_close(Q[1]);
  icb_close(P[1]);
  icb_close(Sv[0]);
  icb_close(Sv[1]);
  icb_close(Efd);
  icb_close(Ep);
}

TEST(IoFdTable, DeterministicNamesAndNumbers) {
  ExploreResult R = exploreIo(fdNamingBody, /*MaxBound=*/1);
  EXPECT_TRUE(R.Bugs.empty()) << (R.Bugs.empty() ? "" : R.Bugs[0].str());
}

// A workload with real io races (two workers pull requests off a shared
// non-blocking pipe while a third writes them) so the jobs-1-vs-N
// comparison covers contended schedules, not just a straight line.
void racyPipeBody() {
  int P[2];
  icb_pipe2(P, O_NONBLOCK);
  pthread_t W[2];
  struct Ctx {
    int Fd;
  };
  static thread_local Ctx C;
  C.Fd = P[0];
  for (pthread_t &T : W)
    icb_pthread_create(
        &T, nullptr,
        [](void *Arg) -> void * {
          char B[2];
          // Either worker may win either byte; the loser sees EAGAIN.
          icb_read(static_cast<Ctx *>(Arg)->Fd, B, sizeof B);
          return nullptr;
        },
        &C);
  icb_write(P[1], "ab", 2);
  for (pthread_t &T : W)
    icb_pthread_join(T, nullptr);
  icb_close(P[0]);
  icb_close(P[1]);
}

TEST(IoFdTable, IdenticalAcrossJobs) {
  obs::MetricsRegistry M1(1), M4(4);
  ExploreResult R1 = exploreIo(racyPipeBody, /*MaxBound=*/2,
                               /*StopAtFirst=*/false, /*Jobs=*/1, &M1);
  ExploreResult R4 = exploreIo(racyPipeBody, /*MaxBound=*/2,
                               /*StopAtFirst=*/false, /*Jobs=*/4, &M4);
  EXPECT_TRUE(R1.Bugs.empty()) << (R1.Bugs.empty() ? "" : R1.Bugs[0].str());
  testutil::expectIdenticalResults(R1, R4);
  testutil::expectSameDeterministicMetrics(M1.snapshot(), M4.snapshot());
}

TEST(IoFdTable, SurvivesPorAndComposesWithIt) {
  ExploreResult Off = exploreIo(racyPipeBody, /*MaxBound=*/2,
                                /*StopAtFirst=*/false, /*Jobs=*/1, nullptr,
                                /*Por=*/false);
  ExploreResult On = exploreIo(racyPipeBody, /*MaxBound=*/2,
                               /*StopAtFirst=*/false, /*Jobs=*/1, nullptr,
                               /*Por=*/true);
  EXPECT_TRUE(Off.Bugs.empty());
  EXPECT_TRUE(On.Bugs.empty());
  // Sleep sets may only prune, never add.
  EXPECT_LE(On.Stats.Executions, Off.Stats.Executions);
}

//===----------------------------------------------------------------------===//
// Stream semantics: partial reads, short writes, EOF, EPIPE, EAGAIN
//===----------------------------------------------------------------------===//

void streamSemanticsBody() {
  int P[2];
  icb_posix_assert(icb_pipe(P) == 0, "pipe");
  icb_posix_assert(icb_write(P[1], "abcd", 4) == 4, "write 4");
  char B[8];
  icb_posix_assert(icb_read(P[0], B, 2) == 2 && B[0] == 'a' && B[1] == 'b',
                   "partial read takes the prefix");
  icb_posix_assert(icb_read(P[0], B, 8) == 2 && B[0] == 'c',
                   "read caps at what is buffered");
  // Drained + writer still open + O_NONBLOCK => EAGAIN, not a park.
  icb_posix_assert(icb_fcntl(P[0], F_SETFL, O_NONBLOCK) == 0, "set nonblock");
  icb_posix_assert(icb_read(P[0], B, 1) == -1 && errno == EAGAIN,
                   "drained nonblocking read -> EAGAIN");
  // select: nothing readable yet; after a write the read end reports.
  fd_set R;
  FD_ZERO(&R);
  FD_SET(P[0], &R);
  struct timeval Tv = {0, 0};
  icb_posix_assert(icb_select(P[0] + 1, &R, nullptr, nullptr, &Tv) >= 0,
                   "select on empty pipe");
  icb_posix_assert(icb_write(P[1], "x", 1) == 1, "write 1");
  FD_ZERO(&R);
  FD_SET(P[0], &R);
  icb_posix_assert(icb_select(P[0] + 1, &R, nullptr, nullptr, nullptr) == 1 &&
                       FD_ISSET(P[0], &R),
                   "select reports the readable end");
  icb_posix_assert(icb_read(P[0], B, 1) == 1, "drain");
  // Writer closed + drained => EOF (0), not EAGAIN.
  icb_posix_assert(icb_close(P[1]) == 0, "close writer");
  icb_posix_assert(icb_read(P[0], B, 4) == 0, "EOF after writer close");
  icb_posix_assert(icb_close(P[0]) == 0, "close reader");

  // Reader closed => EPIPE on write (no SIGPIPE in the model).
  int Q[2];
  icb_posix_assert(icb_pipe(Q) == 0, "second pipe");
  icb_posix_assert(icb_close(Q[0]) == 0, "close reader first");
  icb_posix_assert(icb_write(Q[1], "x", 1) == -1 && errno == EPIPE,
                   "write after reader close -> EPIPE");
  icb_posix_assert(icb_close(Q[1]) == 0, "close writer");

  // Stale fd after close: EBADF.
  icb_posix_assert(icb_read(Q[1], B, 1) == -1 && errno == EBADF,
                   "closed fd -> EBADF");
}

TEST(IoStream, PartialReadShortWriteEofEpipe) {
  ExploreResult R = exploreIo(streamSemanticsBody, /*MaxBound=*/1);
  EXPECT_TRUE(R.Bugs.empty()) << (R.Bugs.empty() ? "" : R.Bugs[0].str());
}

//===----------------------------------------------------------------------===//
// EAGAIN is an explored outcome, not an accident of host timing
//===----------------------------------------------------------------------===//

struct RaceCtx {
  int ReadFd = -1;
  int WriteFd = -1;
  int *GotData = nullptr;
  int *GotEagain = nullptr;
};

void *nonblockReader(void *Arg) {
  RaceCtx *Cx = static_cast<RaceCtx *>(Arg);
  char B;
  long N = icb_read(Cx->ReadFd, &B, 1);
  if (N == 1)
    ++*Cx->GotData;
  else if (N == -1 && errno == EAGAIN)
    ++*Cx->GotEagain;
  else
    icb_posix_assert(0, "nonblocking read returned neither data nor EAGAIN");
  return nullptr;
}

void *oneByteWriter(void *Arg) {
  RaceCtx *Cx = static_cast<RaceCtx *>(Arg);
  icb_posix_assert(icb_write(Cx->WriteFd, "x", 1) == 1, "writer");
  return nullptr;
}

TEST(IoNonblock, EagainAndDataAreBothExplored) {
  int GotData = 0, GotEagain = 0;
  ExploreResult R = exploreIo(
      [&GotData, &GotEagain] {
        int P[2];
        icb_pipe2(P, O_NONBLOCK);
        static thread_local RaceCtx Cx;
        Cx = RaceCtx{P[0], P[1], &GotData, &GotEagain};
        pthread_t Rd, Wr;
        icb_pthread_create(&Rd, nullptr, nonblockReader, &Cx);
        icb_pthread_create(&Wr, nullptr, oneByteWriter, &Cx);
        icb_pthread_join(Rd, nullptr);
        icb_pthread_join(Wr, nullptr);
        icb_close(P[0]);
        icb_close(P[1]);
      },
      /*MaxBound=*/2);
  EXPECT_TRUE(R.Bugs.empty()) << (R.Bugs.empty() ? "" : R.Bugs[0].str());
  EXPECT_GT(GotData, 0) << "no schedule let the writer win";
  EXPECT_GT(GotEagain, 0) << "no schedule took the EAGAIN branch";
}

//===----------------------------------------------------------------------===//
// Modeled poll timeout: both outcomes of the readiness/expiry race
//===----------------------------------------------------------------------===//

void *timedPoller(void *Arg) {
  RaceCtx *Cx = static_cast<RaceCtx *>(Arg);
  struct pollfd Pf;
  Pf.fd = Cx->ReadFd;
  Pf.events = POLLIN;
  Pf.revents = 0;
  int N = icb_poll(&Pf, 1, /*TimeoutMs=*/10);
  if (N == 1)
    ++*Cx->GotData;
  else if (N == 0)
    ++*Cx->GotEagain; // Reused counter: the expiry branch.
  else
    icb_posix_assert(0, "poll returned an error");
  return nullptr;
}

TEST(IoPoll, TimedPollExploresReadyAndExpiry) {
  int Ready = 0, Expired = 0;
  ExploreResult R = exploreIo(
      [&Ready, &Expired] {
        int P[2];
        icb_pipe(P);
        static thread_local RaceCtx Cx;
        Cx = RaceCtx{P[0], P[1], &Ready, &Expired};
        pthread_t Po, Wr;
        icb_pthread_create(&Po, nullptr, timedPoller, &Cx);
        icb_pthread_create(&Wr, nullptr, oneByteWriter, &Cx);
        icb_pthread_join(Po, nullptr);
        icb_pthread_join(Wr, nullptr);
        icb_close(P[0]);
        icb_close(P[1]);
      },
      /*MaxBound=*/2);
  EXPECT_TRUE(R.Bugs.empty()) << (R.Bugs.empty() ? "" : R.Bugs[0].str());
  EXPECT_GT(Ready, 0) << "no schedule delivered readiness before the poll";
  EXPECT_GT(Expired, 0) << "no schedule took the modeled-timeout branch";
}

//===----------------------------------------------------------------------===//
// Epoll edge-triggered lost wakeup: the regression the model must expose
//===----------------------------------------------------------------------===//

// The consumer violates the edge-triggered contract: it reads a fixed
// 2 bytes per wakeup instead of draining to EAGAIN. If both producer
// writes land before the consumer's first epoll_wait report, the report
// consumes the only edge, the partial read leaves 2 bytes buffered, and
// the second epoll_wait parks forever: the classic ET lost wakeup. If
// the first report lands between the writes, the second write is a fresh
// edge and everything drains. Exposing the hang therefore REQUIRES
// epoll_wait to be a real blocking scheduling point the explorer can
// order against the writes — this test is the regression for that.
struct EtCtx {
  int Ep = -1;
  int ReadFd = -1;
  int WriteFd = -1;
  bool Drain = false; ///< true = honor the ET contract (clean variant).
};

void *etConsumer(void *Arg) {
  EtCtx *Cx = static_cast<EtCtx *>(Arg);
  struct epoll_event Ev;
  char B[4];
  long Total = 0;
  while (Total < 4) {
    icb_posix_assert(icb_epoll_wait(Cx->Ep, &Ev, 1, -1) == 1, "epoll_wait");
    if (Cx->Drain) {
      long N;
      while ((N = icb_read(Cx->ReadFd, B, sizeof B)) > 0)
        Total += N;
      icb_posix_assert(N == -1 && errno == EAGAIN, "drain ends at EAGAIN");
    } else {
      long N = icb_read(Cx->ReadFd, B, 2); // Bug: partial consume under ET.
      if (N > 0)
        Total += N;
    }
  }
  return nullptr;
}

void *etProducer(void *Arg) {
  EtCtx *Cx = static_cast<EtCtx *>(Arg);
  icb_posix_assert(icb_write(Cx->WriteFd, "ab", 2) == 2, "write 1");
  icb_posix_assert(icb_write(Cx->WriteFd, "cd", 2) == 2, "write 2");
  return nullptr;
}

ExploreResult exploreEt(bool Drain, unsigned MaxBound) {
  return exploreIo(
      [Drain] {
        int P[2];
        icb_pipe2(P, O_NONBLOCK);
        int Ep = icb_epoll_create1(0);
        struct epoll_event Ev;
        Ev.events = EPOLLIN | EPOLLET;
        Ev.data.fd = P[0];
        icb_posix_assert(icb_epoll_ctl(Ep, EPOLL_CTL_ADD, P[0], &Ev) == 0,
                         "epoll_ctl ADD");
        static thread_local EtCtx Cx;
        Cx = EtCtx{Ep, P[0], P[1], Drain};
        pthread_t C, Pr;
        icb_pthread_create(&C, nullptr, etConsumer, &Cx);
        icb_pthread_create(&Pr, nullptr, etProducer, &Cx);
        icb_pthread_join(C, nullptr);
        icb_pthread_join(Pr, nullptr);
        icb_close(Ep);
        icb_close(P[0]);
        icb_close(P[1]);
      },
      MaxBound, /*StopAtFirst=*/true);
}

TEST(IoEpoll, EdgeTriggeredLostWakeupIsExposed) {
  ExploreResult R = exploreEt(/*Drain=*/false, /*MaxBound=*/2);
  ASSERT_FALSE(R.Bugs.empty())
      << "the ET lost-wakeup hang was not explored — epoll_wait has "
         "stopped being a blocking scheduling point";
  EXPECT_EQ(R.Bugs[0].Kind, search::BugKind::Deadlock);
}

TEST(IoEpoll, DrainingConsumerIsClean) {
  ExploreResult R = exploreEt(/*Drain=*/true, /*MaxBound=*/2);
  EXPECT_TRUE(R.Bugs.empty()) << (R.Bugs.empty() ? "" : R.Bugs[0].str());
}

//===----------------------------------------------------------------------===//
// Managed heap: double free and use-after-free become reported bugs
//===----------------------------------------------------------------------===//

TEST(IoHeap, DoubleFreeIsReported) {
  ExploreResult R = exploreIo(
      [] {
        void *P = icb_malloc(16);
        icb_free(P);
        icb_free(P);
      },
      /*MaxBound=*/0, /*StopAtFirst=*/true);
  ASSERT_FALSE(R.Bugs.empty());
  EXPECT_EQ(R.Bugs[0].Kind, search::BugKind::UseAfterFree);
  EXPECT_NE(R.Bugs[0].str().find("double free"), std::string::npos)
      << R.Bugs[0].str();
}

TEST(IoHeap, QuarantineTrampleIsReported) {
  ExploreResult R = exploreIo(
      [] {
        char *P = static_cast<char *>(icb_malloc(8));
        void *Q = icb_malloc(8);
        icb_free(P);
        P[0] = 'x'; // Use after free: trample the poisoned quarantine.
        icb_free(Q); // The next free's sweep attributes the trample.
      },
      /*MaxBound=*/0, /*StopAtFirst=*/true);
  ASSERT_FALSE(R.Bugs.empty());
  EXPECT_EQ(R.Bugs[0].Kind, search::BugKind::UseAfterFree);
  EXPECT_NE(R.Bugs[0].str().find("use-after-free"), std::string::npos)
      << R.Bugs[0].str();
}

TEST(IoHeap, ReallocWhileBlockTableIsFull) {
  // Every realloc appends a block to the arena's table, so a run of them
  // walks the table through several growths; the realloc that fills it
  // moves the block being resized mid-call. Contents must survive, and an
  // address-sanitized build must see no stale read of the moved block.
  ExploreResult R = exploreIo(
      [] {
        char *P = static_cast<char *>(icb_malloc(8));
        std::memcpy(P, "icbheap", 8);
        for (int I = 0; I != 2048; ++I) {
          P = static_cast<char *>(icb_realloc(P, 8));
          icb_posix_assert(P && std::memcmp(P, "icbheap", 8) == 0,
                           "realloc preserves contents");
        }
        icb_free(P);
      },
      /*MaxBound=*/0);
  EXPECT_TRUE(R.Bugs.empty()) << (R.Bugs.empty() ? "" : R.Bugs[0].str());
}

TEST(IoHeap, CleanLifecycleHasNoReports) {
  ExploreResult R = exploreIo(
      [] {
        char *P = static_cast<char *>(icb_malloc(8));
        P[0] = 'x';
        char *Q = static_cast<char *>(icb_realloc(P, 64));
        icb_posix_assert(Q && Q[0] == 'x', "realloc preserves contents");
        icb_free(Q);
        void *Z = icb_calloc(4, 8);
        icb_posix_assert(Z && static_cast<char *>(Z)[31] == 0,
                         "calloc zeroes");
        icb_free(Z);
      },
      /*MaxBound=*/0);
  EXPECT_TRUE(R.Bugs.empty()) << (R.Bugs.empty() ? "" : R.Bugs[0].str());
}

} // namespace
